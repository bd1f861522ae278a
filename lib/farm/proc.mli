(** Process-isolated fuzzing farm: the campaign loop's process
    executor. The loop's rounds, barriers, journal and checkpoints are
    shared with the domains executor ({!Farm.run}); here each round's
    shares run in supervised worker processes exchanging {!Wire} frames
    over pipes.

    Workers are stateless between rounds — every [Assign] frame carries
    the full round context (corpus replica, pruned set, merged
    profile), so barrier effects reach them with the next assignment —
    and a worker killed at any point (including by the supervisor's
    preemptive heartbeat watchdog) is restarted and re-sent the same
    assignment, reproducing its results, and so its prune votes,
    bit-identically. Coverage, corpus and cycles are invariant across
    worker counts, across [--farm-mode domains|procs], and across any
    kill/restart schedule. The worker lifecycle (watchdog, restart,
    retirement after [max_restarts], shutdown) is {!Supervise}; this
    executor owns the Init/Assign/Items frames. When every worker has
    retired the campaign returns the barriers merged so far, listing
    every worker in [fs_dead]. *)

(** Body of the hidden [odinc fuzz-worker] subcommand (and of the
    test/bench re-exec shims): serve one worker's slot schedules over
    stdin/stdout until [Shutdown] ({!Supervise.serve}). Installs the
    [ODIN_FAULTS] plan from the environment and never returns. *)
val worker_main : unit -> unit

(** Run a process farm over the base module: same contract and result
    shape as the domains executor ({!Farm.run}), plus supervision.
    [worker_argv] is the command line re-executed for each worker
    (default [[| Sys.executable_name; "fuzz-worker" |]]); [worker_env]
    the workers' environment (default: inherited — an [ODIN_FAULTS]
    entry installs the plan {e in the workers}).
    [checkpoint_path] publishes a checkpoint at every barrier; [resume]
    continues from a loaded checkpoint (the target digest must match).
    [worker_timeout] is the preemptive watchdog's heartbeat deadline in
    seconds (default 30); [max_restarts] the kill/restart budget per
    worker before it is retired (default 3). *)
val run :
  ?telemetry:Telemetry.Recorder.t ->
  ?cache_dir:string ->
  ?journal:Telemetry.Journal.t ->
  ?journal_path:string ->
  ?host:string list ->
  ?checkpoint_path:string ->
  ?resume:Orch.ckpt ->
  ?worker_timeout:float ->
  ?max_restarts:int ->
  ?worker_argv:string array ->
  ?worker_env:string array ->
  entry:string ->
  seeds:string list ->
  Orch.config ->
  Ir.Modul.t ->
  Orch.stats
