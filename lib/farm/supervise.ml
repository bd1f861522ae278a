(** Worker-process supervision over {!Wire} frames. See the interface. *)

type ('a, 'r) protocol = {
  init : int -> Wire.msg;
  ready : Wire.msg -> int option;
  assign : 'a -> Wire.msg;
  round_of : 'a -> int;
  result : Wire.msg -> (int * 'r) option;
}

type 'a worker = {
  id : int;
  mutable pid : int;  (** -1 while no process runs *)
  mutable fd_in : Unix.file_descr;  (** supervisor → worker stdin *)
  mutable rd : Wire.reader;  (** worker stdout → supervisor *)
  mutable restarts : int;
  mutable retired : string option;
  mutable last_seen : float;
  mutable queue : 'a list;  (** outstanding assignments, FIFO *)
}

type ('a, 'r) t = {
  proto : ('a, 'r) protocol;
  argv : string array;
  env : string array;
  timeout : float;
  max_restarts : int;
  count : string -> unit;
  ws : 'a worker array;
  mutable universe : int;  (** -1 until the first Ready *)
  mutable n_restarts : int;
  mutable retired_log : (int * string) list;  (** newest first *)
}

let live_workers sup =
  List.filter (fun w -> w.retired = None) (Array.to_list sup.ws)

let live sup = List.map (fun w -> w.id) (live_workers sup)
let restarts sup = sup.n_restarts
let retired sup = List.rev sup.retired_log

(* SIGKILL (when [kill]) and wait for [w]'s process, then close its pipes *)
let stop w ~kill =
  if w.pid > 0 then begin
    if kill then (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
    (try Unix.close w.fd_in with Unix.Unix_error _ -> ());
    (try Unix.close w.rd.Wire.rd_fd with Unix.Unix_error _ -> ());
    w.pid <- -1
  end

let reap sup w =
  stop w ~kill:true;
  sup.count "worker_deaths"

(* Spawn, send Init, then wait for Ready (bounded). The pipes are
   cloexec: create_process's dup2 onto the std fds clears the flag for
   the child's own copies, and other children don't inherit this
   worker's pipe ends. *)
let launch sup w =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  w.pid <- Unix.create_process_env sup.argv.(0) sup.argv sup.env in_r out_w Unix.stderr;
  Unix.close in_r;
  Unix.close out_w;
  w.fd_in <- in_w;
  w.rd <- Wire.reader out_r;
  w.last_seen <- Unix.gettimeofday ();
  let deadline = w.last_seen +. max sup.timeout 5. in
  let rec await () =
    match Wire.next w.rd with
    | Some (Wire.Died reason) -> Error reason
    | Some msg -> (
      match sup.proto.ready msg with
      | Some n when sup.universe < 0 || n = sup.universe ->
        sup.universe <- n;
        Ok ()
      | Some _ -> Error "universe size differs from the fleet's"
      | None -> Error "protocol violation in handshake")
    | None when Unix.gettimeofday () > deadline -> Error "handshake timeout"
    | None -> (
      match Unix.select [ w.rd.Wire.rd_fd ] [] [] 0.1 with
      | [], _, _ -> await ()
      | _ -> (
        match Wire.feed w.rd with
        | `Eof -> Error "worker exited during handshake"
        | `Read _ -> await ()))
  in
  match
    Wire.send w.fd_in (sup.proto.init w.id);
    await ()
  with
  | result -> result
  | exception Wire.Wire_error m -> Error m

(* restart-or-retire. A restarted worker is re-sent its outstanding
   assignments; a retired one's move to the lowest-id live worker. *)
let rec on_death sup w reason =
  if w.retired = None then begin
    reap sup w;
    if w.restarts < sup.max_restarts then begin
      w.restarts <- w.restarts + 1;
      sup.n_restarts <- sup.n_restarts + 1;
      sup.count "worker_restarts";
      match launch sup w with
      | Ok () -> send_all sup w w.queue
      | Error m -> on_death sup w ("restart failed: " ^ m)
    end
    else begin
      w.retired <- Some reason;
      sup.retired_log <- (w.id, reason) :: sup.retired_log;
      let orphans = w.queue in
      w.queue <- [];
      give sup w orphans
    end
  end

and send_all sup w jobs =
  try List.iter (fun a -> Wire.send w.fd_in (sup.proto.assign a)) jobs
  with Wire.Wire_error m -> on_death sup w ("assign failed: " ^ m)

(* queue and send [jobs] to [w], or to the lowest-id live worker once
   [w] is retired; with no worker left they are dropped *)
and give sup w jobs =
  match if w.retired = None then [ w ] else live_workers sup with
  | [] -> ()
  | w :: _ ->
    w.queue <- w.queue @ jobs;
    send_all sup w jobs

let start ~telemetry ?(env = Unix.environment ()) ~prefix ~argv ~timeout
    ~max_restarts ~workers proto =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let mk id =
    {
      id;
      pid = -1;
      fd_in = Unix.stdin;
      rd = Wire.reader Unix.stdin;
      restarts = 0;
      retired = None;
      last_seen = 0.;
      queue = [];
    }
  in
  let sup =
    {
      proto;
      argv;
      env;
      timeout;
      max_restarts;
      count =
        (fun name -> Telemetry.Recorder.count (Some telemetry) (prefix ^ "." ^ name));
      ws = Array.init (max 1 workers) mk;
      universe = -1;
      n_restarts = 0;
      retired_log = [];
    }
  in
  Array.iter
    (fun w -> match launch sup w with Ok () -> () | Error m -> on_death sup w m)
    sup.ws;
  (sup, max 0 sup.universe)

exception Dead of string

(* read what [w] sent and act on every complete frame *)
let pump sup w ~on_result =
  (match Wire.feed w.rd with
  | `Eof ->
    raise
      (Dead
         (if Wire.pending w.rd > 0 then "torn frame: worker died mid-send"
          else "worker closed pipe"))
  | `Read n -> if n > 0 then w.last_seen <- Unix.gettimeofday ());
  let rec drain () =
    match Wire.next w.rd with
    | None -> ()
    | Some (Wire.Heartbeat _) ->
      w.last_seen <- Unix.gettimeofday ();
      (try Support.Fault.hit "farm.heartbeat"
       with
       | Support.Fault.Injected _ | Support.Fault.Transient_fault _
       | Support.Fault.Timed_out _
       ->
         raise (Dead "heartbeat fault (preemptive kill)"));
      drain ()
    | Some (Wire.Died reason) -> raise (Dead ("worker fault: " ^ reason))
    | Some msg -> (
      match (sup.proto.result msg, w.queue) with
      | None, _ -> raise (Dead "protocol violation")
      | Some _, [] -> raise (Dead "unsolicited result frame")
      | Some (round, r), a :: rest ->
        if sup.proto.round_of a <> round then
          raise (Dead "result for the wrong round");
        w.last_seen <- Unix.gettimeofday ();
        w.queue <- rest;
        on_result w.id r;
        drain ())
  in
  drain ()

let round sup jobs ~on_result =
  List.iter (fun (id, a) -> give sup sup.ws.(id) [ a ]) jobs;
  let owing () =
    List.filter (fun w -> w.retired = None && w.queue <> []) (Array.to_list sup.ws)
  in
  while owing () <> [] do
    let now = Unix.gettimeofday () in
    List.iter
      (fun w ->
        if now -. w.last_seen > sup.timeout then
          on_death sup w "missed heartbeat deadline (preemptive kill)")
      (owing ());
    (* pair each worker with its current reader: a worker restarted
       while this batch is handled has a new pipe, unread by select *)
    let waiting = List.map (fun w -> (w, w.rd)) (owing ()) in
    let readable, _, _ =
      try Unix.select (List.map (fun (_, rd) -> rd.Wire.rd_fd) waiting) [] [] 0.05
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun (w, rd) ->
        if w.retired = None && w.rd == rd && List.mem rd.Wire.rd_fd readable then
          try pump sup w ~on_result with
          | Dead reason -> on_death sup w reason
          | Wire.Wire_error m -> on_death sup w m)
      waiting
  done

let shutdown sup =
  Array.iter
    (fun w ->
      if w.pid > 0 then
        stop w
          ~kill:
            (match Wire.send w.fd_in Wire.Shutdown with
            | () -> false
            | exception Wire.Wire_error _ -> true))
    sup.ws

let serve ~init ~work ~quit =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  ignore (Support.Fault.init_from_env ());
  let rd = Wire.reader Unix.stdin in
  let send m = Wire.send Unix.stdout m in
  let die e code =
    let reason =
      match e with
      | Support.Fault.Injected site -> "injected fault at " ^ site
      | Support.Fault.Timed_out site -> "timed out at " ^ site
      | Failure msg -> msg
      | e -> Printexc.to_string e
    in
    (try send (Wire.Died reason) with _ -> ());
    exit code
  in
  let st, ready =
    match Wire.recv rd with
    | exception Wire.Wire_error _ -> exit 65
    | msg -> ( try init msg with e -> die e 3)
  in
  (try send ready with Wire.Wire_error _ -> exit 70);
  let rec loop () =
    match Wire.recv rd with
    | exception Wire.Wire_error _ ->
      (* the supervisor went away (EOF / torn pipe): nothing to report to *)
      exit 66
    | Wire.Shutdown ->
      quit st;
      exit 0
    | msg ->
      (try work st ~send msg with
      | Wire.Wire_error _ ->
        (* a torn/failed send means this process can no longer speak the
           protocol; die and let the supervisor restart it cleanly *)
        exit 70
      | e -> die e 2);
      loop ()
  in
  loop ()
