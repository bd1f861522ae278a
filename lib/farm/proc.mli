(** Process-isolated fuzzing farm: a supervisor and N worker processes
    exchanging {!Wire} frames over pipes.

    Workers are stateless between rounds — every [Assign] frame carries
    the full round context — so a worker killed at any point (including
    by the supervisor's preemptive heartbeat watchdog) is restarted and
    re-sent the same assignment, reproducing its results
    bit-identically. Coverage, corpus and cycles are invariant across
    worker counts, across [--farm-mode domains|procs], and across any
    kill/restart schedule. The worker lifecycle (watchdog, restart,
    retirement after [max_restarts], shutdown) is {!Supervise}; this
    driver owns the Init/Assign/Items frames, and each restart
    multiplies the worker's prune-vote weight by [fc_vote_decay]. When
    every worker has retired the campaign returns the barriers merged
    so far, listing every worker in [fs_dead].

    At every sync barrier the supervisor publishes an {!Orch.ckpt}
    through {!Wire.write_checkpoint}; [run ~resume] continues a
    campaign from one, reaching the same final coverage bitmap and
    journal tail as the uninterrupted run. *)

(** Body of the hidden [odinc fuzz-worker] subcommand (and of the
    test/bench re-exec shims): serve one worker's slot schedules over
    stdin/stdout until [Shutdown] ({!Supervise.serve}). Installs the
    [ODIN_FAULTS] plan from the environment and never returns. *)
val worker_main : unit -> unit

(** Run a process farm over the base module: same contract and result
    shape as the domains driver ({!Farm.run}), plus supervision and
    checkpointing. [worker_argv] is the command line re-executed for
    each worker (default [[| Sys.executable_name; "fuzz-worker" |]]);
    [worker_env] the workers' environment (default: inherited — an
    [ODIN_FAULTS] entry installs the plan {e in the workers}).
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
