(** Campaign drivers implementing the paper's evaluation methodology
    (Section 5): fuzz a coverage build once to collect a corpus, then
    replay that corpus under every instrumentation tool and measure
    execution duration in VM cycles. *)

val entry : string

val default_hosts : (string * (Vm.t -> int64)) list

val fresh_vm : ?hosts:(string * (Vm.t -> int64)) list -> Link.Linker.exe -> Vm.t

(** Run one input through [entry] in a fresh VM; returns the VM (cycles,
    memory, coverage state readable). [setup] runs before execution
    (e.g. to attach a DBI engine). *)
val run_once :
  ?hosts:(string * (Vm.t -> int64)) list ->
  ?setup:(Vm.t -> unit) ->
  Link.Linker.exe ->
  string ->
  Vm.t

(** A fuzzing target backed by a SanitizerCoverage build of the module. *)
val sancov_target : Ir.Modul.t -> Fuzz.target

(** AFL-style energy for a seed from the VM's execution profile: cheap
    executions ([cycles] under [avg_cycles]), broad function coverage
    and cycle spread (vs. one saturated hot loop) all raise the weight.
    [fn_cycles] is per-function cycle attribution as returned by
    [Vm.profile_top]. Deterministic, >= 1, ~100 for an average seed;
    feed the result to {!Corpus.add}'s [?energy]. *)
val seed_energy :
  avg_cycles:int -> cycles:int -> fn_cycles:(string * int) list -> int

type prepared = {
  profile : Workloads.Profile.t;
  source : string;
  modul : Ir.Modul.t;  (** pristine frontend output (never optimized) *)
  corpus : string list;  (** replay inputs, in discovery order *)
  fuzz_stats : Fuzz.stats;
}

(** Compile a workload and fuzz it to collect the replay corpus;
    [rounds] repeats the corpus during replay (steady-state throughput).
    [telemetry] records generate/frontend/fuzz spans plus exec and
    coverage-over-time counters (observation only — the same executions
    run either way). *)
val prepare :
  ?telemetry:Telemetry.Recorder.t ->
  ?fuzz_execs:int ->
  ?rounds:int ->
  Workloads.Profile.t ->
  prepared

type replay = { r_tool : string; r_total_cycles : int; r_per_input : int list }

val replay_plain : prepared -> replay
val replay_sancov : prepared -> replay
val replay_dbi : Baselines.Dbi.kind -> prepared -> replay

type odin_replay = {
  o_replay : replay;
  o_session : Odin.Session.t;
  o_recompiles : int;
  o_probes_pruned : int;
  o_degraded : int;  (** refreshes that completed with degraded fragments *)
  o_rollbacks : int;  (** refreshes rolled back to the previous executable *)
  o_events : Odin.Session.recompile_event list;
      (** the build's event, then each successful refresh's, oldest first *)
}

(** OdinCov replay: instrument-first coverage with (by default)
    Untracer-style pruning and on-the-fly recompilation between
    executions. Cycles are execution-only; recompile costs live in
    [o_events]. [telemetry] receives the session's build spans
    plus exec-cycle histograms and recompile/prune counters. Refreshes
    are transactional ({!Odin.Session.try_refresh}): a degraded or
    rolled-back rebuild is counted, not fatal. [cache_dir] enables the
    session's persistent object store so a restarted campaign on the
    same workload starts warm. *)
val replay_odincov :
  ?telemetry:Telemetry.Recorder.t ->
  ?prune:bool ->
  ?mode:Odin.Partition.mode ->
  ?cache_dir:string ->
  prepared ->
  odin_replay
