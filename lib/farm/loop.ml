(** The fuzzing farm's campaign loop: one body, two executors. See the
    interface. *)

module Recorder = Telemetry.Recorder

type executor = {
  n_probes : int;
  live : unit -> int list;
  round : Orch.t -> round:int -> (int * int list) list -> Csync.item list;
  apply : Orch.t -> Orch.centry list -> int list -> unit;
  recorders : Recorder.t list;
  store : Support.Objstore.t option;
  dead : unit -> (int * string) list;
  join : Telemetry.Span.span -> int;
  close : unit -> unit;
}

(* slots are dealt round-robin over the live workers; the deal only
   decides who computes what *)
let deal live idxs =
  let n = List.length live in
  let shares = Array.make n [] in
  List.iteri (fun k idx -> shares.(k mod n) <- idx :: shares.(k mod n)) idxs;
  List.mapi (fun k id -> (id, List.rev shares.(k))) live
  |> List.filter (fun (_, idxs) -> idxs <> [])

let run ?telemetry ?journal ?journal_path ?checkpoint_path ?resume ~mode ~seeds
    (cfg : Orch.config) base spawn =
  let nw = max 1 cfg.Orch.fc_workers in
  let r = match telemetry with Some r -> r | None -> Recorder.create () in
  (* flight recorder: events are recorded throughout and the bounded
     window is atomically republished at every barrier *)
  let jr =
    match (journal, journal_path) with
    | Some j, _ -> Some j
    | None, Some _ -> Some (Telemetry.Journal.create ~clock:r.Recorder.clock ())
    | None, None -> None
  in
  let jflush () =
    match (jr, journal_path) with
    | Some j, Some p -> Telemetry.Journal.flush j p
    | _ -> ()
  in
  let digest = Orch.module_digest base in
  let refuse why = invalid_arg (Printf.sprintf "%s farm: checkpoint %s" mode why) in
  (match resume with
  | Some ck ->
    if ck.Orch.ck_digest <> digest then
      refuse "is for a different target module";
    if ck.Orch.ck_seed <> cfg.Orch.fc_seed then
      refuse "seed differs from the configured seed"
  | None -> ());
  let farm_sp =
    Telemetry.Span.enter r.Recorder.spans ~cat:"farm"
      ~args:
        [
          ("workers", string_of_int nw);
          ("execs", string_of_int cfg.Orch.fc_execs);
          ("sync_interval", string_of_int cfg.Orch.fc_sync_interval);
          ("seed", string_of_int cfg.Orch.fc_seed);
          ("mode", mode);
        ]
      "farm"
  in
  Fun.protect ~finally:(fun () -> Telemetry.Span.exit r.Recorder.spans farm_sp)
  @@ fun () ->
  let ex =
    Telemetry.Span.with_span r.Recorder.spans ~cat:"farm" "spawn" (fun () -> spawn r)
  in
  Fun.protect ~finally:ex.close @@ fun () ->
  let orch =
    match resume with
    | Some ck ->
      if ck.Orch.ck_n_probes <> ex.n_probes && ex.live () <> [] then
        refuse "probe count differs from the target";
      Orch.restore cfg ck
    | None -> Orch.create ~n_probes:ex.n_probes cfg
  in
  let interval_gauge =
    Telemetry.Metrics.counter r.Recorder.metrics "farm.sync_interval_current"
  in
  (* fresh workers take the checkpointed state exactly as the barriers
     they missed would have brought it *)
  if resume <> None then
    ex.apply orch (Orch.corpus_entries orch) (Orch.pruned_list orch);

  (* ---------------- the sync barrier ------------------------------ *)
  let barrier ~round ~next items =
    Recorder.with_span r ~cat:"farm" ~args:[ ("round", string_of_int round) ] "sync"
    @@ fun () ->
    let items =
      List.sort (fun a b -> compare a.Csync.it_index b.Csync.it_index) items
    in
    let broadcast, prunes = Orch.merge_round orch items in
    Recorder.count (Some r) ~by:(List.length broadcast) "farm.inputs_exchanged";
    if prunes <> [] then
      Recorder.count (Some r) ~by:(List.length prunes) "farm.probes_pruned";
    ex.apply orch broadcast prunes;
    (* store GC: bound the shared persistent tier while every worker is
       parked at the barrier *)
    (match (cfg.Orch.fc_cache_limit, ex.store) with
    | Some max_bytes, Some st ->
      let g = Support.Objstore.gc ~max_bytes st in
      orch.Orch.o_gc_evicted <- orch.Orch.o_gc_evicted + g.Support.Objstore.gc_evicted;
      if g.Support.Objstore.gc_evicted > 0 then
        Recorder.count (Some r) ~by:g.Support.Objstore.gc_evicted
          "farm.store_gc_evicted"
    | _ -> ());
    Recorder.count (Some r) "farm.sync_rounds";
    Telemetry.Metrics.set interval_gauge orch.Orch.o_interval;
    (* flight recorder: one sync event plus a campaign-counter snapshot,
       republished atomically while every worker is at the barrier *)
    (match jr with
    | None -> ()
    | Some j ->
      Orch.record_sync_event j orch ~round ~merged:(List.length items)
        ~accepted:(List.length broadcast) ~pruned:(List.length prunes);
      Orch.record_counters_event j ~round
        ~quarantined:(Option.map Support.Objstore.quarantine_length ex.store)
        ex.recorders);
    (match checkpoint_path with
    | None -> ()
    | Some path ->
      let ck = Orch.snapshot orch ~digest ~workers:nw ~round ~next in
      if Wire.write_checkpoint path ck then
        Recorder.count (Some r) "farm.checkpoints");
    jflush ()
  in

  (* ---------------- rounds ---------------------------------------- *)
  let run_round ~round ~next idxs =
    let items = ex.round orch ~round (deal (ex.live ()) idxs) in
    (* a round that lost its last worker has no barrier *)
    if ex.live () <> [] then barrier ~round ~next items
  in
  (* round 0: the seed inputs themselves, then the mutation budget in
     sync-interval chunks (current interval: adaptive when enabled) *)
  let n_seeds = List.length seeds in
  let budget = max 0 cfg.Orch.fc_execs in
  let next = ref 0 in
  let round = ref 1 in
  (match resume with
  | Some ck ->
    next := ck.Orch.ck_next;
    round := ck.Orch.ck_round + 1
  | None ->
    if n_seeds > 0 && ex.live () <> [] then
      run_round ~round:0 ~next:0 (List.init n_seeds Fun.id));
  while !next < budget && ex.live () <> [] do
    let n = min orch.Orch.o_interval (budget - !next) in
    let slots = List.init n (fun k -> n_seeds + !next + k) in
    next := !next + n;
    run_round ~round:!round ~next:!next slots;
    incr round
  done;

  (* ---------------- finish ---------------------------------------- *)
  let cross_hits = ex.join farm_sp in
  let st =
    Orch.mk_stats orch ~workers:nw ~cross_hits ~dead:(ex.dead ())
      ~store:(Option.map Support.Objstore.stats ex.store)
  in
  (match jr with
  | None -> ()
  | Some j ->
    Orch.record_probe_cost_events j st.Orch.fs_probe_cost;
    Orch.record_done_event j orch ~workers:nw ~cross_hits;
    jflush ());
  st
