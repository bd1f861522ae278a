(** Fuzzing farm: N concurrent campaign workers over one target, each
    with its own deterministic RNG stream, corpus shard and Odin
    session. Workers rendezvous at sync barriers: deduplicating corpus
    exchange ({!Csync}), global coverage merge, and globally-voted
    probe pruning ({!Instr.Votes}). One campaign loop runs the rounds,
    barriers, journal and checkpoints over two executors: {!run} keeps
    the workers in-process on the domain pool, sharing one
    content-addressed object cache; {!Proc.run} runs them as supervised
    worker processes. Deterministic for a fixed (seed, sync-interval)
    pair; the logical results (coverage, pruned set, corpus) are
    worker-count invariant by construction — and substrate invariant:
    both executors share the loop and the orchestration core ({!Orch})
    and produce bit-identical campaigns. *)

(** The corpus-sync protocol, re-exported: [farm.ml] is the library's
    interface module, so this is the public path to {!Csync}. *)
module Csync = Csync

(** The shared orchestration core (slot execution, probe-state
    application, barrier merge, votes, adaptive intervals,
    checkpoints). *)
module Orch = Orch

(** The supervisor/worker wire protocol and the checkpoint file
    format. *)
module Wire = Wire

(** Worker-process supervision (spawn, watchdog, restart, retire,
    shutdown), shared by {!Proc} and the mutation campaign. *)
module Supervise = Supervise

(** The process executor: supervised worker processes, preemptive
    watchdog, kill/restart. *)
module Proc = Proc

type config = Orch.config = {
  fc_workers : int;
  fc_execs : int;  (** mutated-execution budget, farm-wide (seeds excluded) *)
  fc_sync_interval : int;  (** executions per sync round, farm-wide *)
  fc_seed : int;
  fc_prune_quorum : int;
      (** fired-execution votes required to prune a probe globally;
          <= 0 disables pruning. 1 = Untracer policy, globally. *)
  fc_cache_limit : int option;  (** store GC size bound (bytes), per barrier *)
  fc_adaptive_sync : bool;
      (** scale the sync interval up on quiet barriers, reset on new
          coverage (off by default) *)
}

(** 1 worker, 400 execs, sync every 100, seed 42, quorum 1, no GC,
    fixed interval. *)
val default_config : config

(** Cumulative cost attribution for one probe site across the campaign:
    instrumentation toggles (1 once the probe is pruned — its removal,
    the only toggle a farm makes), merged executions run while the
    probe was globally armed, and the VM's per-site increment
    hits/cycles (merged in slot order — worker-count invariant like
    every other farm result). *)
type probe_cost = Orch.probe_cost = {
  pc_pid : int;
  pc_toggles : int;
  pc_execs_armed : int;
  pc_hits : int;
  pc_cycles : int;
}

type stats = Orch.stats = {
  fs_workers : int;
  fs_execs : int;  (** executions merged at barriers (seeds included) *)
  fs_total_cycles : int;
  fs_sync_rounds : int;
  fs_offered : int;
  fs_exchanged : int;  (** accepted and broadcast to every shard *)
  fs_duplicates : int;
  fs_stale : int;
  fs_coverage : int list;  (** globally covered probe ids, ascending *)
  fs_total_probes : int;
  fs_pruned : int list;  (** globally pruned probe ids, ascending *)
  fs_corpus : string list;  (** global corpus inputs, acceptance order *)
  fs_cross_hits : int;  (** object-cache hits on another worker's entry *)
  fs_recompiles : int;
  fs_skipped : int;
  fs_crashes : int;
  fs_dead : (int * string) list;
  fs_gc_evicted : int;
  fs_store : Support.Objstore.stats option;
  fs_probe_cost : probe_cost list;  (** every probe id, ascending *)
}

(** duplicates / offered, percent. *)
val dedup_rate : stats -> float

(** Run a farm over [base]: build one session per worker (shared object
    cache, optional shared persistent store via [cache_dir]), replay
    the [seeds], then spend [fc_execs] mutated executions in
    sync-interval rounds. [entry] is the target entry point; [host]
    names host functions registered as no-ops in each guest VM
    (defaults to the workloads' host set). Per-worker telemetry is
    recorded on forked recorders and merged into [telemetry] (or a
    private recorder) at the end. [incremental_link:false] /
    [incremental_sched:false] (default [true]) give each worker's
    session the full-link / full-walk reference path
    ({!Odin.Session.create}); farm results are bit-identical either
    way. Worker sessions are untiered whatever [ODIN_TIER] says.

    [journal]/[journal_path] attach a campaign flight recorder: sync
    and counter-snapshot events are recorded at every barrier, per-probe
    cost events plus a final summary at the end, and when a path is
    given the bounded window is atomically republished at each barrier
    (crash-safe: a killed farm leaves the last barrier's journal). A
    path without a journal creates a private one.

    [checkpoint_path] publishes an {!Orch.ckpt} atomically at every
    barrier ({!Wire.write_checkpoint}); [resume] continues a campaign
    from a loaded checkpoint (same target module and seed required),
    reaching the same final state as an uninterrupted run. A round in
    which the last worker dies has no barrier: nothing of it is merged
    and no checkpoint is published for it. *)
val run :
  ?telemetry:Telemetry.Recorder.t ->
  ?pool:Support.Pool.t ->
  ?cache_dir:string ->
  ?incremental_link:bool ->
  ?incremental_sched:bool ->
  ?journal:Telemetry.Journal.t ->
  ?journal_path:string ->
  ?host:string list ->
  ?checkpoint_path:string ->
  ?resume:Orch.ckpt ->
  entry:string ->
  seeds:string list ->
  config ->
  Ir.Modul.t ->
  stats
