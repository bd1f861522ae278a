(** Worker-process supervision over {!Wire} frames: the one lifecycle
    behind the process farm ({!Proc}) and the mutation campaign's
    [Procs] mode.

    A client describes its frames in a {!protocol} and owns nothing
    else of a worker's life. On the supervisor side this module owns:

    - {b spawn}: each worker re-executes [argv] over two cloexec pipes,
      is sent its Init frame, and must answer Ready within
      [max timeout 5.] seconds. A Ready reporting a different universe
      size than the fleet's first one is a failed start;
    - {b watchdog}: a worker that owes results and has sent no frame
      for [timeout] seconds is SIGKILLed — preemptively, so a worker
      wedged in a non-yielding loop cannot stall the round. Fault site
      ["farm.heartbeat"] fires per heartbeat processed; an injected
      fault is treated as a missed deadline;
    - {b restart}: a dead worker (EOF, torn frame, [Died], protocol
      violation, watchdog kill) is respawned and re-sent its
      outstanding assignments. Workers are stateless between
      assignments, so the re-run reproduces the lost results;
    - {b retirement}: a worker that dies after [max_restarts] restarts
      is retired, and its outstanding assignments move to the lowest-id
      live worker;
    - the [<prefix>.worker_deaths] and [<prefix>.worker_restarts]
      counters.

    Nothing is raised when the last worker retires: {!round} returns
    and {!live} is empty. *)

(** A client's frames. ['a] is one assignment, ['r] one decoded result. *)
type ('a, 'r) protocol = {
  init : int -> Wire.msg;  (** the Init frame for worker [id] *)
  ready : Wire.msg -> int option;
      (** [Some universe] when the frame is this protocol's Ready *)
  assign : 'a -> Wire.msg;
  round_of : 'a -> int;
  result : Wire.msg -> (int * 'r) option;
      (** [Some (round, result)] when the frame is a result *)
}

type ('a, 'r) t

(** Spawn [workers] processes and wait for each to be ready, restarting
    or retiring the ones that fail. Returns the fleet and its universe
    size (0 when no worker came up). [env] defaults to the inherited
    environment. *)
val start :
  telemetry:Telemetry.Recorder.t ->
  ?env:string array ->
  prefix:string ->
  argv:string array ->
  timeout:float ->
  max_restarts:int ->
  workers:int ->
  ('a, 'r) protocol ->
  ('a, 'r) t * int

(** Send each [(worker id, assignment)] and supervise until every
    outstanding assignment has a result. [on_result id r] runs the
    moment worker [id]'s result [r] is accepted. *)
val round : ('a, 'r) t -> (int * 'a) list -> on_result:(int -> 'r -> unit) -> unit

(** Ids of the workers not retired, ascending. *)
val live : ('a, 'r) t -> int list

(** Restarts so far, failed starts included. *)
val restarts : ('a, 'r) t -> int

(** [(id, reason)] of every retired worker, in retirement order. *)
val retired : ('a, 'r) t -> (int * string) list

(** Send every running worker a Shutdown frame (SIGKILL if the send
    fails), reap it and close its pipes. Idempotent. *)
val shutdown : ('a, 'r) t -> unit

(** The worker side: install the [ODIN_FAULTS] plan, answer the first
    frame with [init] (which returns the worker state and the Ready
    frame), then answer each frame with [work] until Shutdown, which
    runs [quit] and exits 0. A failure is reported in a [Died] frame
    before exiting nonzero; a failed send exits without one. Never
    returns. *)
val serve :
  init:(Wire.msg -> 's * Wire.msg) ->
  work:('s -> send:(Wire.msg -> unit) -> Wire.msg -> unit) ->
  quit:('s -> unit) ->
  'a
