(** Kill-matrix mutation campaigns over a probe-toggling session farm.

    The amortization argument (the whole point of serving mutation
    testing from Odin): the target is compiled {e once} per worker, and
    every one of the campaign's mutants after that costs one batched
    probe toggle — disarm the previous mutant, arm the next — served by
    one O(changed) schedule pass and one incremental relink. A
    thousand-mutant campaign does a thousand relinks, not a thousand
    compiles.

    Two distribution modes, same contract as the fuzzing farm
    ({!Farm.run} / {!Farm.Proc.run}): [Domains] shares one process and
    one content-addressed object cache; [Procs] runs stateless child
    processes under the farm's supervisor ({!Farm.Supervise}: restart,
    retire, preemptive watchdog). Per-mutant verdicts are pure
    functions of (mutant, suite), so the merged matrix is bit-identical
    for any worker count and either mode. *)

(** Per-(mutant, test) outcome: one kill-matrix cell. *)
type outcome =
  | Pass  (** same return value as the pristine run *)
  | Kill  (** different return value *)
  | Crash  (** VM trap the pristine run did not raise *)
  | Hang  (** step budget or wall-clock deadline exhausted *)

(** Per-mutant verdict, folded over its row of the matrix. *)
type verdict =
  | Killed  (** some test killed or crashed it *)
  | Timeout  (** no kill, but some test hung — detected by bound *)
  | Survived  (** indistinguishable from pristine under this suite *)

val outcome_char : outcome -> char
val verdict_to_string : verdict -> string

(** One kill-matrix row. Pure function of (mutant, suite): contains no
    scheduling artifacts, so rows compare structurally across worker
    counts and farm modes. *)
type row = {
  r_id : int;  (** mutant index in generation order, 0-based *)
  r_desc : string;  (** e.g. ["aor add->sub"] *)
  r_family : Gen.family;
  r_target : string;  (** function holding the mutated site *)
  r_outcomes : outcome list;  (** suite order *)
  r_verdict : verdict;
  r_cycles : int;  (** VM cycles summed over the row's runs *)
}

(** The merged kill matrix; rows ascending by mutant id. *)
type matrix = {
  m_rows : row list;
  m_tests : int;
  m_generated : int;
  m_killed : int;
  m_survived : int;
  m_timeout : int;
  m_score : float;  (** percent: detected (killed + timeout) / generated *)
}

(** Campaign cost accounting, kept out of {!matrix} because link
    traffic depends on worker count and assignment order. *)
type stats = {
  s_initial_links : int;  (** full compiles: one per session built *)
  s_full_links : int;  (** total full relinks, initial builds included *)
  s_incr_links : int;  (** mutant refreshes served by the patch path *)
  s_symbols_patched : int;  (** symbols re-placed across all refreshes *)
  s_restarts : int;  (** [Procs] worker restarts *)
  s_retired : (int * string) list;  (** [Procs] workers given up on *)
  s_resumed_rows : int;  (** rows loaded from a checkpoint, not re-run *)
}

type mode = Domains | Procs

type config = {
  mc_workers : int;
  mc_mode : mode;
  mc_families : Gen.family list;
  mc_limit : int option;  (** keep only the first N mutants *)
  mc_max_steps : int;  (** per-test VM step budget (the [Hang] bound) *)
  mc_deadline : float option;  (** per-test wall-clock backstop, seconds *)
  mc_chunk : int;  (** mutants dealt per worker per round *)
  mc_checkpoint : string option;  (** publish a checkpoint every round *)
  mc_resume : bool;  (** continue from [mc_checkpoint] if loadable *)
  mc_stop_after : int option;
      (** stop once this many mutants are done (testing hook: simulate
          a mid-campaign crash between rounds) *)
  mc_worker_argv : string array option;
      (** [Procs] re-exec command line (default
          [[| Sys.executable_name; "mutate-worker" |]]) *)
  mc_worker_timeout : float;  (** [Procs] heartbeat deadline, seconds *)
  mc_max_restarts : int;  (** [Procs] restart budget per worker *)
}

val default_config : config

(** Run a campaign over [base]. The suite is a list of inputs for
    [entry]; a pristine baseline run of the whole suite anchors the
    kill comparison.
    When every [Procs] worker has retired, the campaign ends without
    raising: the matrix holds the rows finished so far and [s_retired]
    lists every worker.
    @raise Failure when the pristine baseline itself traps or hangs
    @raise Invalid_argument when a resume checkpoint targets a
      different module, operator set or suite *)
val run :
  ?telemetry:Telemetry.Recorder.t ->
  ?journal:Telemetry.Journal.t ->
  ?journal_path:string ->
  ?host:string list ->
  entry:string ->
  suite:string list ->
  config ->
  Ir.Modul.t ->
  matrix * stats

(** Render the kill matrix: one row per mutant ([K]/[.]/[!]/[T] cells
    per test), verdict column, then the per-operator breakdown and the
    mutation score. *)
val render : matrix -> string

(** Child-process entry point for [Procs] campaigns (the [mutate-worker]
    re-exec marker): speaks the [mutate.*] {!Farm.Wire.Blob}
    sub-protocol on stdin/stdout ({!Farm.Supervise.serve}) and never
    returns. *)
val worker_main : unit -> 'a
