(** Process-isolated fuzzing farm: the campaign loop's process executor.

    The domains executor ({!Farm.run}) shares one OCaml heap: a wedged
    or segfaulting worker — exactly what a fuzzer is built to provoke —
    takes the campaign with it, and the cooperative [with_deadline]
    watchdog cannot preempt a worker stuck in a non-yielding loop. Here
    each worker is a separate process ([odinc fuzz-worker]) running one
    round's slot schedule at a time, and the supervisor can always
    [SIGKILL] a stuck one. Rounds, barriers, journal, checkpoints and
    stats are the campaign loop's ({!Loop}), shared with the domains
    executor; this module supplies only who runs a round's shares —
    worker processes, through {!Supervise.round} — and the
    Init/Assign/Items frames.

    {2 Stateless workers, deterministic restarts}

    Every [Assign] frame carries the worker's complete round context:
    the full global-corpus replica (with energies), the full pruned
    set, the merged profile, and the slot list. A worker rebuilds its
    shard from scratch each round and takes the probe state through
    {!Orch.apply_state}, so barrier effects need no delivery of their
    own, and a killed worker is restarted by re-sending the very same
    frame — the partial results of the killed attempt are discarded and
    the re-run reproduces them bit-identically (slots are pure
    functions of [(seed, slot, round-start replica)]). Its votes are
    therefore the same evidence an unkilled worker would cast, and
    count the same. Coverage, corpus and cycles are invariant across
    worker counts, across [--farm-mode domains|procs], and across any
    kill/restart schedule — the property the kill matrix in
    [test_proc.ml] pins down.

    {2 Supervision}

    The worker lifecycle — spawn and handshake, the preemptive
    heartbeat watchdog, restart with re-send, retirement after
    [max_restarts] with orphaned assignments moved to the lowest-id
    live worker, shutdown — is {!Supervise}, shared with the mutation
    campaign. Workers send a [Heartbeat] frame after applying round
    state and after every completed slot. When every worker has
    retired, the campaign ends with the barriers merged so far. Fault
    sites: ["farm.heartbeat"] ({!Supervise}); ["wire.send"] (in either
    process) and ["farm.checkpoint"] are documented in {!Wire}.

    Unlike the domains executor — which discards a dead worker's
    in-flight round and retires the lane — this one re-runs the dead
    worker's share: with faults in play the two modes intentionally
    differ (that is the crash-proofing), while fault-free campaigns are
    bit-identical across modes. *)

(* ================================================================== *)
(* Worker side                                                         *)
(* ================================================================== *)

(* Build the worker's session from the Init frame; returns the
   per-assignment handler and the Ready frame. *)
let worker_init (init : Wire.init) =
  let m = Ir.Parse.module_of_string ~name:init.Wire.in_mod_name init.Wire.in_mod_text in
  let session =
    Odin.Session.create ~mode:init.Wire.in_mode ~keep:[ init.Wire.in_entry ]
      ~runtime_globals:[ Odin.Cov.runtime_global m ]
      ~host:init.Wire.in_host ~pool:Support.Pool.serial
      ?cache_dir:init.Wire.in_cache_dir
      ~tiered:(init.Wire.in_promote_share > 0.) m
  in
  let cov = Odin.Cov.setup session in
  (match Odin.Session.try_build session with
  | Odin.Session.Ok | Odin.Session.Degraded _ -> ()
  | Odin.Session.Rolled_back err ->
    failwith ("initial build rolled back: " ^ err.Odin.Session.err_msg));
  let probes : (int, Instr.Probe.t) Hashtbl.t = Hashtbl.create 97 in
  List.iter
    (fun (p : Instr.Probe.t) -> Hashtbl.replace probes p.Instr.Probe.pid p)
    (Instr.Manager.to_list session.Odin.Session.manager);
  let run_assign ~send (a : Wire.assign) =
    (* stateless round context: rebuild the shard replica, then take
       the campaign's probe state (only what this process has not
       applied yet changes anything) *)
    let corpus = Fuzzer.Corpus.create () in
    Orch.replay_corpus corpus a.Wire.as_corpus;
    let _, refreshed =
      Orch.apply_state ~share:init.Wire.in_promote_share session probes
        ~pruned:a.Wire.as_pruned ~profile:a.Wire.as_fn_cycles
    in
    let heartbeat n = send (Wire.Heartbeat { hb_round = a.Wire.as_round; hb_done = n }) in
    heartbeat 0;
    let lost = { Orch.skipped = 0; crashes = 0 } in
    let items =
      Orch.run_slots ~each:heartbeat lost
        (Orch.exec_slot ~seed:init.Wire.in_seed ~entry:init.Wire.in_entry
           ~host:init.Wire.in_host ~seeds:init.Wire.in_seeds ~session
           ~total_probes:cov.Odin.Cov.total_probes ~corpus)
        a.Wire.as_slots
    in
    send
      (Wire.Items
         {
           im_round = a.Wire.as_round;
           im_items = items;
           im_skipped = lost.skipped;
           im_crashes = lost.crashes;
           im_recompiles = (if refreshed then 1 else 0);
         })
  in
  ( run_assign,
    Wire.Ready { rd_id = init.Wire.in_id; rd_n_probes = cov.Odin.Cov.total_probes } )

(** Body of [odinc fuzz-worker] (and of the test/bench re-exec
    shims): serve one worker's slot schedules over stdin/stdout until
    [Shutdown] ({!Supervise.serve}). *)
let worker_main () =
  Supervise.serve ~quit:ignore
    ~init:(function
      | Wire.Init i -> worker_init i
      | _ -> failwith "protocol violation: expected Init")
    ~work:(fun run_assign ~send -> function
      | Wire.Assign a -> run_assign ~send a
      | _ -> failwith "protocol violation: unexpected frame")

(* ================================================================== *)
(* Supervisor side                                                     *)
(* ================================================================== *)

(** Run a process farm over [base]: same contract and result shape as
    the domains executor ({!Farm.run}), plus supervision.
    [worker_argv] is the command line re-executed for each worker
    (default [[| Sys.executable_name; "fuzz-worker" |]], which is right
    for [odinc]; tests and benches pass their own re-exec marker);
    [worker_env] the workers' environment (default: inherited — note
    [ODIN_FAULTS] in it installs the plan {e in the workers}).
    [checkpoint_path] publishes a checkpoint at every barrier; [resume]
    continues a campaign from a loaded checkpoint (the target digest
    must match). [worker_timeout] is the preemptive watchdog's heartbeat
    deadline in seconds; [max_restarts] the kill/restart budget per
    worker before it is retired. *)
let run ?telemetry ?cache_dir ?journal ?journal_path
    ?(host = Workloads.Generate.host_functions) ?checkpoint_path ?resume
    ?(worker_timeout = 30.) ?(max_restarts = 3) ?worker_argv ?worker_env
    ~entry ~seeds (cfg : Orch.config) (base : Ir.Modul.t) =
  let argv =
    match worker_argv with
    | Some a -> a
    | None -> [| Sys.executable_name; "fuzz-worker" |]
  in
  let mod_text = Ir.Print.module_to_string base in
  let init_for id =
    {
      Wire.in_id = id;
      in_seed = cfg.Orch.fc_seed;
      in_mode = cfg.Orch.fc_mode;
      in_entry = entry;
      in_host = host;
      in_seeds = seeds;
      in_mod_name = base.Ir.Modul.mname;
      in_mod_text = mod_text;
      in_cache_dir = cache_dir;
      in_promote_share = cfg.Orch.fc_promote_share;
    }
  in
  let proto =
    {
      Supervise.init = (fun id -> Wire.Init (init_for id));
      ready = (function Wire.Ready { rd_n_probes; _ } -> Some rd_n_probes | _ -> None);
      assign = (fun a -> Wire.Assign a);
      round_of = (fun a -> a.Wire.as_round);
      result = (function Wire.Items im -> Some (im.Wire.im_round, im) | _ -> None);
    }
  in
  Loop.run ?telemetry ?journal ?journal_path ?checkpoint_path ?resume
    ~mode:"procs" ~seeds cfg base
  @@ fun r ->
  (* opened before the fleet boots: nothing may fail between the boot
     and the loop's shutdown guard *)
  let store =
    Option.map
      (Support.Objstore.open_store ~version:Odin.Session.store_format_version)
      cache_dir
  in
  let sup, n_probes =
    Supervise.start ~telemetry:r ?env:worker_env ~prefix:"farm" ~argv
      ~timeout:worker_timeout ~max_restarts ~workers:cfg.Orch.fc_workers proto
  in
  let restarts = ref 0 in
  let round (orch : Orch.t) ~round jobs =
    let as_corpus = Orch.corpus_entries orch and as_pruned = Orch.pruned_list orch in
    let as_fn_cycles =
      if cfg.Orch.fc_promote_share > 0. then Orch.fn_profile orch else []
    in
    let items = ref [] in
    Supervise.round sup
      (List.map
         (fun (id, as_slots) ->
           (id, { Wire.as_round = round; as_slots; as_corpus; as_pruned; as_fn_cycles }))
         jobs)
      ~on_result:(fun _ im ->
        orch.Orch.o_skipped <- orch.Orch.o_skipped + im.Wire.im_skipped;
        orch.Orch.o_crashes <- orch.Orch.o_crashes + im.Wire.im_crashes;
        orch.Orch.o_recompiles <- orch.Orch.o_recompiles + im.Wire.im_recompiles;
        items := im.Wire.im_items @ !items);
    (* restarts, failed boots included, are campaign-cumulative too *)
    orch.Orch.o_restarts <- orch.Orch.o_restarts + Supervise.restarts sup - !restarts;
    restarts := Supervise.restarts sup;
    !items
  in
  {
    Loop.n_probes;
    live = (fun () -> Supervise.live sup);
    round;
    apply = (fun _ _ _ -> ());
    recorders = [ r ];
    store;
    dead = (fun () -> List.sort compare (Supervise.retired sup));
    join = (fun _ -> 0);
    close = (fun () -> Supervise.shutdown sup);
  }
