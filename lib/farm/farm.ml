(** Fuzzing farm: a multi-worker campaign over one target.

    N campaign workers fuzz one target concurrently. Each worker owns a
    deterministic RNG stream, a corpus shard and its own Odin session.
    Workers rendezvous at sync barriers every [fc_sync_interval]
    executions: coverage-increasing inputs are exchanged through the
    deduplicating {!Csync} protocol, global coverage is merged into one
    bitmap, and probe pruning is decided {e globally} ({!Instr.Votes})
    so the farm converges to the same pruned instrumentation a long
    single campaign would.

    The campaign itself — rounds, barriers, journal, checkpoints, stats
    — is one loop ({!Loop}) with two executors. This module is the
    domains executor: the workers are in-process lanes on the OCaml 5
    domain pool, and all their sessions share one content-addressed
    {!Odin.Session.object_cache}, so a fragment compiled by any worker
    is a (cross-)hit for every other. {!Proc} is the process executor
    ([--farm-mode procs]). Everything that decides results — slot
    execution, the barrier merge, how a session takes probe state —
    lives in {!Orch}, so the two substrates cannot drift apart.

    {2 Determinism}

    The farm is deterministic for a fixed [(seed, sync-interval)] pair
    — and, by construction, its {e logical} results do not depend on
    the worker count at all. The schedule is expressed in
    worker-independent {e execution slots}: slot [i] draws from an RNG
    derived from [(seed, i)] and mutates against the round-start corpus
    snapshot, which is a replica of the global corpus on every shard
    (broadcast at the previous barrier). Probe state only changes at
    barriers, applied identically to every session, so within a round
    all workers run byte-identical executables; which worker executes
    slot [i] therefore cannot change the result, only who computes it.
    All cross-worker state — corpus broadcast, bitmap merge, prune
    votes — mutates only at the barrier, in slot order. [test_farm.ml]
    asserts bit-identical coverage and pruned-probe sets across
    [--workers 1/2/4]; [test_proc.ml] extends the matrix across
    [--farm-mode domains|procs] and kill/restart schedules.

    {2 Fault tolerance}

    Two farm-specific fault sites ({!Support.Fault}): ["vm.step"] fires
    per basic-block entry inside guest executions — an injected fault
    kills the worker mid-round, a transient one skips that execution —
    and ["farm.sync"] fires at each worker's barrier check-in. A dead
    worker's in-flight round is discarded (it is excluded from the
    barrier), its slots are redistributed to survivors from the next
    round on, and because slot results are worker-independent the
    surviving lanes are unaffected — the farm degrades gracefully and
    keeps its determinism. A round that loses its last worker has no
    barrier. (The process executor goes further: it {e restarts} the
    dead worker and re-runs its share — see {!Proc}.)

    {2 Checkpoint/resume}

    With [checkpoint_path] the loop publishes an {!Orch.ckpt} at every
    barrier (atomic, [.prev] rotation — {!Wire.write_checkpoint});
    [resume] continues a campaign from one, replaying the global corpus
    and pruned set into fresh workers and carrying on with the next
    round to the same final state as an uninterrupted run. *)

module Csync = Csync
module Orch = Orch
module Wire = Wire
module Supervise = Supervise
module Proc = Proc
module Recorder = Telemetry.Recorder

type config = Orch.config = {
  fc_workers : int;
  fc_execs : int;  (** mutated-execution budget, farm-wide (seeds excluded) *)
  fc_sync_interval : int;  (** executions per sync round, farm-wide *)
  fc_seed : int;
  fc_prune_quorum : int;
      (** fired-execution votes required to prune a probe globally;
          <= 0 disables pruning. 1 = Untracer policy, globally. *)
  fc_cache_limit : int option;  (** store GC size bound (bytes), per barrier *)
  fc_mode : Odin.Partition.mode;
  fc_adaptive_sync : bool;
      (** scale the sync interval up on quiet barriers, reset on new
          coverage *)
  fc_promote_share : float;
      (** > 0: tiered workers + barrier tier promotions at this merged
          cycle-share threshold; 0.0 (default) = untiered ({!Orch}) *)
}

let default_config = Orch.default_config

type probe_cost = Orch.probe_cost = {
  pc_pid : int;
  pc_toggles : int;  (** 1 once pruned: its removal, a farm's only toggle *)
  pc_execs_armed : int;  (** merged executions while globally armed *)
  pc_hits : int;  (** counter increments executed *)
  pc_cycles : int;  (** VM cycles spent in the increment sequence *)
}

type stats = Orch.stats = {
  fs_workers : int;
  fs_execs : int;  (** executions merged at barriers (seeds included) *)
  fs_total_cycles : int;
  fs_sync_rounds : int;
  fs_offered : int;  (** inputs offered at barriers *)
  fs_exchanged : int;  (** accepted and broadcast to every shard *)
  fs_duplicates : int;
  fs_stale : int;
  fs_coverage : int list;  (** globally covered probe ids, ascending *)
  fs_total_probes : int;
  fs_pruned : int list;  (** globally pruned probe ids, ascending *)
  fs_corpus : string list;  (** global corpus inputs, acceptance order *)
  fs_cross_hits : int;  (** object-cache hits on another worker's entry *)
  fs_recompiles : int;  (** barrier refreshes across all workers *)
  fs_skipped : int;
  fs_crashes : int;
  fs_dead : (int * string) list;  (** dead workers (id, reason), id order *)
  fs_gc_evicted : int;  (** store entries evicted at barriers *)
  fs_store : Support.Objstore.stats option;
  fs_probe_cost : probe_cost list;  (** every probe id, ascending *)
}

let dedup_rate = Orch.dedup_rate

(* one in-process worker: a lane of the domains executor *)
type worker = {
  wk_id : int;
  wk_session : Odin.Session.t;
  wk_cov : Odin.Cov.t;
  wk_probes : (int, Instr.Probe.t) Hashtbl.t;  (** pid -> probe, until pruned *)
  wk_corpus : Fuzzer.Corpus.t;  (** shard; replica of the global corpus *)
  wk_recorder : Recorder.t;  (** forked; merged into the farm's at the end *)
  mutable wk_dead : string option;  (** why the worker left the farm *)
}

(** Run a farm over [base]. [entry] is the target entry point
    ([Campaign.entry] for the shipped workloads), [seeds] the initial
    inputs, [host] the host-function names registered as no-ops in each
    guest VM. [pool] executes both the workers within a round and (from
    the orchestrator, between rounds) the sessions' fragment compiles;
    results are independent of its size. [cache_dir] puts the shared
    persistent object store behind every worker's session.
    [incremental_link:false] / [incremental_sched:false] give every
    worker's session the full-link / full-walk reference path.
    [checkpoint_path] publishes a campaign checkpoint at every barrier;
    [resume] continues from one. *)
let run ?telemetry ?pool ?cache_dir ?incremental_link ?incremental_sched
    ?journal ?journal_path ?(host = Workloads.Generate.host_functions)
    ?checkpoint_path ?resume ~entry ~seeds (cfg : config) (base : Ir.Modul.t) =
  let pool = match pool with Some p -> p | None -> Support.Pool.default () in
  Loop.run ?telemetry ?journal ?journal_path ?checkpoint_path ?resume
    ~mode:"domains" ~seeds cfg base
  @@ fun r ->
  let shared = Odin.Session.object_cache ~size:1024 () in
  let jclock = Telemetry.Clock.synchronized r.Recorder.clock in
  (* Workers are created serially in id order: worker 0's initial build
     populates the shared cache, every later worker's build is all
     cross hits. *)
  let mk_worker i =
    let wr = Recorder.fork ~clock:jclock r in
    let m = Ir.Clone.clone_module base in
    let session =
      (* tiering pinned to the config, not ODIN_TIER: farm results must
         not depend on the environment the campaign happens to run in *)
      Odin.Session.create ~mode:cfg.fc_mode ~keep:[ entry ]
        ~runtime_globals:[ Odin.Cov.runtime_global m ]
        ~host ~pool ~objects:shared ~owner:i ?cache_dir ?incremental_link
        ?incremental_sched ~tiered:(cfg.fc_promote_share > 0.) ~telemetry:wr m
    in
    let cov = Odin.Cov.setup session in
    let dead =
      match Odin.Session.try_build session with
      | Odin.Session.Ok | Odin.Session.Degraded _ -> None
      | Odin.Session.Rolled_back err ->
        Some ("initial build rolled back: " ^ err.Odin.Session.err_msg)
    in
    let probes = Hashtbl.create 97 in
    List.iter
      (fun (p : Instr.Probe.t) -> Hashtbl.replace probes p.Instr.Probe.pid p)
      (Instr.Manager.to_list session.Odin.Session.manager);
    {
      wk_id = i;
      wk_session = session;
      wk_cov = cov;
      wk_probes = probes;
      wk_corpus = Fuzzer.Corpus.create ();
      wk_recorder = wr;
      wk_dead = dead;
    }
  in
  let workers = Array.init (max 1 cfg.fc_workers) mk_worker in
  let alive w = w.wk_dead = None in
  let kill w why =
    w.wk_dead <- Some why;
    Recorder.count (Some r) "farm.worker_deaths"
  in
  let exec w idx =
    let item =
      Orch.exec_slot ~seed:cfg.fc_seed ~entry ~host ~seeds ~session:w.wk_session
        ~total_probes:w.wk_cov.Odin.Cov.total_probes ~corpus:w.wk_corpus idx
    in
    Recorder.count (Some w.wk_recorder) "campaign.execs";
    Recorder.observe (Some w.wk_recorder) "campaign.exec_cycles"
      (float_of_int item.Csync.it_cycles);
    item
  in
  (* one worker's share of a round, on a pool domain; never raises *)
  let run_share ~round (id, idxs) =
    let w = workers.(id) in
    let lost = { Orch.skipped = 0; crashes = 0 } in
    Recorder.with_span w.wk_recorder ~cat:"farm"
      ~args:[ ("round", string_of_int round) ]
      "worker-round"
    @@ fun () ->
    match Orch.run_slots lost (exec w) idxs with
    | items -> (w, lost, Ok items)
    | exception Support.Fault.Injected site ->
      (w, lost, Error ("injected fault at " ^ site))
    | exception Support.Fault.Timed_out site -> (w, lost, Error ("timed out at " ^ site))
    | exception e -> (w, lost, Error (Printexc.to_string e))
  in
  let round (orch : Orch.t) ~round jobs =
    let results = Support.Pool.map pool (run_share ~round) jobs in
    (* a worker that died mid-round loses its whole round: its slots are
       not merged, so survivors see exactly what they would have seen
       had the dead worker never been assigned those slots *)
    List.iter
      (fun (w, (lost : Orch.losses), res) ->
        orch.Orch.o_skipped <- orch.Orch.o_skipped + lost.skipped;
        orch.Orch.o_crashes <- orch.Orch.o_crashes + lost.crashes;
        match res with Error why -> kill w why | Ok _ -> ())
      results;
    (* rendezvous: every surviving worker checks in — including workers
       that drew no slots this round; an injected fault here kills it at
       the barrier door, same exclusion *)
    Array.iter
      (fun w ->
        if alive w then
          try Support.Fault.hit "farm.sync"
          with
          | Support.Fault.Injected site
          | Support.Fault.Transient_fault site
          | Support.Fault.Timed_out site
          ->
            kill w ("fault at " ^ site))
      workers;
    List.concat_map
      (fun (w, _, res) ->
        match res with Ok items when alive w -> items | _ -> [])
      results
  in
  (* barrier effects, serial in worker order: every live worker replays
     the accepted entries into its shard (shards stay global replicas,
     slot or no slot) and takes the prunes and the promotions the merged
     profile implies — the same set in every session, so within a round
     all workers still run byte-identical executables. The first
     survivor compiles the new fragments, the rest hit the shared
     cache. *)
  let apply (orch : Orch.t) entries pruned =
    let share = cfg.fc_promote_share in
    let profile = if share > 0. then Orch.fn_profile orch else [] in
    let promoted = ref 0 in
    Array.iter
      (fun w ->
        if alive w then begin
          Orch.replay_corpus w.wk_corpus entries;
          let p, refreshed =
            Orch.apply_state ~share w.wk_session w.wk_probes ~pruned ~profile
          in
          if !promoted = 0 then promoted := List.length p;
          if refreshed then orch.Orch.o_recompiles <- orch.Orch.o_recompiles + 1
        end)
      workers;
    if !promoted > 0 then
      Recorder.count (Some r) ~by:!promoted "farm.tier_promotions"
  in
  {
    Loop.n_probes = workers.(0).wk_cov.Odin.Cov.total_probes;
    live =
      (fun () ->
        Array.to_list workers
        |> List.filter_map (fun w -> if alive w then Some w.wk_id else None));
    round;
    apply;
    recorders = r :: Array.to_list (Array.map (fun w -> w.wk_recorder) workers);
    store = workers.(0).wk_session.Odin.Session.store;
    dead =
      (fun () ->
        Array.to_list workers
        |> List.filter_map (fun w ->
               Option.map (fun why -> (w.wk_id, why)) w.wk_dead));
    join =
      (fun parent ->
        let cross = Odin.Session.cross_hits shared in
        Recorder.count (Some r) ~by:cross "farm.cache_cross_hits";
        Array.iter (fun w -> Recorder.merge ~into:r ~parent w.wk_recorder) workers;
        cross);
    close = ignore;
  }
