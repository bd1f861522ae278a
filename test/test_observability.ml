(* The observability layer: BENCH snapshot round-trips, the
   tolerance-classed diff engine behind [odinc bench-diff], the
   crash-safe campaign journal (bounded window, truncation recovery),
   atomic file publication, and the headline per-probe cost
   attribution contract — [fs_probe_cost] is bit-identical across
   --workers 1/2/4, like every other logical farm result. *)

module Snap = Telemetry.Snapshot
module Journal = Telemetry.Journal
module Json = Telemetry.Json
module Fsio = Support.Fsio
module Pool = Support.Pool

let vclock ?(step = 1.0) () = Telemetry.Clock.virtual_clock ~step ()

let tmpdir =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "odin-obs-%d" (Unix.getpid ()))
  in
  Fsio.mkdir_p d;
  d

(* ---------------- snapshot round-trip ---------------------------------- *)

let sample_snapshot () =
  Snap.create ~section:"parallel"
    ~meta:[ ("git", "abc123def456"); ("jobs", "4"); ("mode", "quick") ]
    [
      Snap.metric ~unit_:"cycles" ~cls:Snap.Cost "jobs1.cost" 4096.;
      Snap.metric ~cls:Snap.Exact "jobs1.compiled_cold" 17.;
      Snap.metric "default_pool_size" 8.;
    ]

let test_snapshot_roundtrip () =
  let s = sample_snapshot () in
  (match Snap.parse (Snap.render s) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s' ->
    Alcotest.(check bool) "render/parse round-trip" true (s = s'));
  let path = Snap.write ~dir:tmpdir s in
  Alcotest.(check string)
    "filename convention"
    (Filename.concat tmpdir "BENCH_parallel.json")
    path;
  (match Snap.read path with
  | Error e -> Alcotest.failf "read failed: %s" e
  | Ok s' -> Alcotest.(check bool) "write/read round-trip" true (s = s'));
  (* atomic publication leaves no staging files behind *)
  Array.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "no temp file left (%s)" f)
        false
        (Filename.check_suffix f ".tmp"))
    (Sys.readdir tmpdir)

let test_snapshot_rejects_garbage () =
  let bad s =
    match Snap.parse s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "not json" true (bad "not json at all");
  Alcotest.(check bool) "wrong shape" true (bad "[1,2,3]");
  Alcotest.(check bool) "missing fields" true (bad "{\"schema\":1}");
  (* host wall-clock is not a snapshot class: a wall metric is refused,
     not gated *)
  let doc cls =
    Printf.sprintf
      "{\"schema_version\":1,\"section\":\"t\",\"metrics\":[{\"name\":\"cold\",\
       \"value\":12.5,\"unit\":\"ms\",\"class\":\"%s\"}]}"
      cls
  in
  Alcotest.(check bool) "cost class parses" false (bad (doc "cost"));
  Alcotest.(check bool) "wall class refused" true (bad (doc "wall"))

(* ---------------- diff tolerance boundaries ---------------------------- *)

let snap_of metrics = Snap.create ~section:"t" metrics

let one_verdict base cur =
  let baseline = snap_of [ base ] and current = snap_of [ cur ] in
  match Snap.diff ~baseline ~current () with
  | [ e ] -> e.Snap.d_verdict
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es)

let verdict =
  Alcotest.testable
    (fun fmt v ->
      Format.pp_print_string fmt
        (match v with Snap.Pass -> "pass" | Warn -> "warn" | Fail -> "fail"))
    ( = )

let test_diff_boundaries () =
  let m cls v = Snap.metric ~cls "m" v in
  let check name exp base cur =
    Alcotest.check verdict name exp (one_verdict base cur)
  in
  (* cost: warn over +2%, fail over +10% *)
  check "cost +1% passes" Snap.Pass (m Snap.Cost 100.) (m Snap.Cost 101.);
  check "cost +5% warns" Snap.Warn (m Snap.Cost 100.) (m Snap.Cost 105.);
  check "cost +15% fails" Snap.Fail (m Snap.Cost 100.) (m Snap.Cost 115.);
  (* improvements pass *)
  check "cost -30% passes" Snap.Pass (m Snap.Cost 100.) (m Snap.Cost 70.);
  (* exact: any drift fails, either direction *)
  check "exact equal passes" Snap.Pass (m Snap.Exact 42.) (m Snap.Exact 42.);
  check "exact +1 fails" Snap.Fail (m Snap.Exact 42.) (m Snap.Exact 43.);
  check "exact -1 fails" Snap.Fail (m Snap.Exact 42.) (m Snap.Exact 41.);
  (* info never gates *)
  check "info 5x passes" Snap.Pass (m Snap.Info 10.) (m Snap.Info 50.);
  (* zero baseline: infinite drift still classifies *)
  check "cost from zero fails" Snap.Fail (m Snap.Cost 0.) (m Snap.Cost 5.)

let test_diff_missing_and_new () =
  let base = snap_of [ Snap.metric ~cls:Snap.Exact "gone" 1. ] in
  let cur = snap_of [ Snap.metric ~cls:Snap.Exact "born" 2. ] in
  let entries = Snap.diff ~baseline:base ~current:cur () in
  let by_name n = List.find (fun e -> e.Snap.d_name = n) entries in
  Alcotest.check verdict "dropped gated metric fails" Snap.Fail
    (by_name "gone").Snap.d_verdict;
  Alcotest.check verdict "new metric passes" Snap.Pass
    (by_name "born").Snap.d_verdict;
  Alcotest.check verdict "worst is fail" Snap.Fail (Snap.worst entries);
  (* a missing Info metric never gates *)
  let base_i = snap_of [ Snap.metric "fyi" 1. ] in
  let entries = Snap.diff ~baseline:base_i ~current:(snap_of []) () in
  Alcotest.check verdict "missing info metric passes" Snap.Pass
    (Snap.worst entries);
  Alcotest.check verdict "empty diff passes" Snap.Pass (Snap.worst [])

(* ---------------- journal ---------------------------------------------- *)

let mkjournal ?limit () = Journal.create ?limit ~clock:(vclock ()) ()

let test_journal_window () =
  let j = mkjournal ~limit:4 () in
  for i = 1 to 10 do
    Journal.record j ~kind:"tick" [ ("i", Json.Int i) ]
  done;
  Alcotest.(check int) "window length" 4 (Journal.length j);
  Alcotest.(check int) "dropped count" 6 (Journal.dropped j);
  let seqs = List.map (fun e -> e.Journal.e_seq) (Journal.events j) in
  Alcotest.(check (list int)) "oldest dropped, order kept" [ 6; 7; 8; 9 ] seqs;
  let is = List.filter_map (fun e -> Journal.field_int e "i") (Journal.events j) in
  Alcotest.(check (list int)) "fields survive" [ 7; 8; 9; 10 ] is

let test_journal_flush_load () =
  let j = mkjournal () in
  Journal.record j ~kind:"farm.sync"
    [ ("round", Json.Int 1); ("coverage", Json.Int 5) ];
  Journal.record j ~kind:"probe.cost"
    [ ("pid", Json.Int 0); ("cycles", Json.Int 99) ];
  let path = Filename.concat tmpdir "journal.jsonl" in
  Journal.flush j path;
  let l = Journal.load path in
  Alcotest.(check int) "all events load" 2 (List.length l.Journal.l_events);
  Alcotest.(check int) "nothing skipped" 0 l.Journal.l_skipped;
  Alcotest.(check int) "nothing dropped" 0 l.Journal.l_dropped;
  let e = List.nth l.Journal.l_events 1 in
  Alcotest.(check string) "kind survives" "probe.cost" e.Journal.e_kind;
  Alcotest.(check (option int)) "field survives" (Some 99)
    (Journal.field_int e "cycles")

let test_journal_truncation_recovery () =
  (* a crash mid-write leaves a torn last line; load must recover the
     intact prefix and count the damage rather than fail *)
  let j = mkjournal ~limit:8 () in
  for i = 1 to 12 do
    Journal.record j ~kind:"tick" [ ("i", Json.Int i) ]
  done;
  let path = Filename.concat tmpdir "torn.jsonl" in
  Journal.flush j path;
  let full = Fsio.read_file path in
  let torn = String.sub full 0 (String.length full - 7) in
  let oc = open_out_bin path in
  output_string oc torn;
  close_out oc;
  let l = Journal.load path in
  Alcotest.(check int) "torn tail skipped" 1 l.Journal.l_skipped;
  Alcotest.(check int) "intact prefix loads" 7 (List.length l.Journal.l_events);
  Alcotest.(check int) "header dropped count survives" 4 l.Journal.l_dropped;
  let seqs = List.map (fun e -> e.Journal.e_seq) l.Journal.l_events in
  Alcotest.(check (list int)) "prefix in order" [ 4; 5; 6; 7; 8; 9; 10 ] seqs

(* ---------------- atomic publication ----------------------------------- *)

let test_write_atomic () =
  let path = Filename.concat tmpdir "atomic.txt" in
  Fsio.write_atomic path "first";
  Fsio.write_atomic path "second";
  Alcotest.(check string) "overwrite publishes" "second" (Fsio.read_file path);
  Fsio.write_atomic_with path (fun b -> Buffer.add_string b "third");
  Alcotest.(check string) "buffer variant" "third" (Fsio.read_file path);
  Array.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "no staging residue (%s)" f)
        false
        (Filename.check_suffix f ".tmp"))
    (Sys.readdir tmpdir)

(* ---------------- per-probe attribution determinism -------------------- *)

let tiny = Workloads.Profile.tiny
let entry = Fuzzer.Campaign.entry
let seeds = Workloads.Generate.seed_inputs ~count:2 tiny

let run_farm ?(workers = 1) ?(pool = Pool.serial) ?journal ?journal_path () =
  let m = Workloads.Generate.compile tiny in
  let cfg =
    {
      Farm.default_config with
      Farm.fc_workers = workers;
      fc_execs = 60;
      fc_sync_interval = 20;
      fc_prune_quorum = 1;
    }
  in
  Farm.run ~pool ?journal ?journal_path ~entry ~seeds cfg m

let pc_row p =
  ( p.Farm.pc_pid,
    p.Farm.pc_toggles,
    p.Farm.pc_execs_armed,
    p.Farm.pc_hits,
    p.Farm.pc_cycles )

let test_attribution_invariance () =
  let sts = List.map (fun w -> run_farm ~workers:w ()) [ 1; 2; 4 ] in
  let base = List.hd sts in
  let rows st = List.map pc_row st.Farm.fs_probe_cost in
  List.iteri
    (fun i st ->
      Alcotest.(check bool)
        (Printf.sprintf "probe cost identical (w=%d)" (List.nth [ 1; 2; 4 ] i))
        true
        (rows base = rows st))
    sts;
  (* shape: one row per probe, ascending by pid *)
  Alcotest.(check int) "one row per probe" base.Farm.fs_total_probes
    (List.length base.Farm.fs_probe_cost);
  Alcotest.(check (list int)) "ascending pids"
    (List.init base.Farm.fs_total_probes Fun.id)
    (List.map (fun p -> p.Farm.pc_pid) base.Farm.fs_probe_cost);
  (* substance: the campaign found coverage, so something was hit and
     charged cycles; pruned probes were toggled off *)
  Alcotest.(check bool) "some probe hit" true
    (List.exists (fun p -> p.Farm.pc_hits > 0) base.Farm.fs_probe_cost);
  Alcotest.(check bool) "hits imply cycles" true
    (List.for_all
       (fun p -> (p.Farm.pc_hits > 0) = (p.Farm.pc_cycles > 0))
       base.Farm.fs_probe_cost);
  List.iter
    (fun pid ->
      let p = List.nth base.Farm.fs_probe_cost pid in
      Alcotest.(check bool)
        (Printf.sprintf "pruned probe %d toggled" pid)
        true (p.Farm.pc_toggles > 0))
    base.Farm.fs_pruned

let test_attribution_on_domains () =
  (* same contract when slots really run on ODIN_JOBS-style domains *)
  let pool = Pool.create ~size:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let a = run_farm ~workers:1 () in
  let b = run_farm ~workers:4 ~pool () in
  Alcotest.(check bool) "serial = domain pool" true
    (List.map pc_row a.Farm.fs_probe_cost = List.map pc_row b.Farm.fs_probe_cost)

let test_journal_from_farm () =
  let path = Filename.concat tmpdir "farm.jsonl" in
  let st = run_farm ~workers:2 ~journal_path:path () in
  let l = Journal.load path in
  Alcotest.(check int) "no torn lines" 0 l.Journal.l_skipped;
  let kinds = List.map (fun e -> e.Journal.e_kind) l.Journal.l_events in
  Alcotest.(check bool) "sync events" true (List.mem "farm.sync" kinds);
  Alcotest.(check bool) "counter events" true (List.mem "counters" kinds);
  Alcotest.(check bool) "final summary" true (List.mem "farm.done" kinds);
  let costs =
    List.filter (fun e -> e.Journal.e_kind = "probe.cost") l.Journal.l_events
  in
  Alcotest.(check int) "one cost event per probe" st.Farm.fs_total_probes
    (List.length costs);
  (* journal rows mirror fs_probe_cost exactly *)
  List.iter2
    (fun e p ->
      Alcotest.(check (option int)) "pid" (Some p.Farm.pc_pid)
        (Journal.field_int e "pid");
      Alcotest.(check (option int)) "toggles" (Some p.Farm.pc_toggles)
        (Journal.field_int e "toggles");
      Alcotest.(check (option int)) "execs_armed" (Some p.Farm.pc_execs_armed)
        (Journal.field_int e "execs_armed");
      Alcotest.(check (option int)) "hits" (Some p.Farm.pc_hits)
        (Journal.field_int e "hits");
      Alcotest.(check (option int)) "cycles" (Some p.Farm.pc_cycles)
        (Journal.field_int e "cycles"))
    costs st.Farm.fs_probe_cost;
  (* the final farm.done event carries the logical results *)
  let dones =
    List.filter (fun e -> e.Journal.e_kind = "farm.done") l.Journal.l_events
  in
  let d = List.nth dones (List.length dones - 1) in
  Alcotest.(check (option int)) "execs" (Some st.Farm.fs_execs)
    (Journal.field_int d "execs");
  Alcotest.(check (option int)) "coverage" (Some (List.length st.Farm.fs_coverage))
    (Journal.field_int d "coverage")

(* ----------------------------------------------------------------------- *)

let () =
  Alcotest.run "observability"
    [
      ( "snapshot",
        [
          Alcotest.test_case "round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_snapshot_rejects_garbage;
        ] );
      ( "diff",
        [
          Alcotest.test_case "tolerance boundaries" `Quick test_diff_boundaries;
          Alcotest.test_case "missing and new metrics" `Quick
            test_diff_missing_and_new;
        ] );
      ( "journal",
        [
          Alcotest.test_case "bounded window" `Quick test_journal_window;
          Alcotest.test_case "flush and load" `Quick test_journal_flush_load;
          Alcotest.test_case "truncation recovery" `Quick
            test_journal_truncation_recovery;
        ] );
      ( "fsio",
        [ Alcotest.test_case "atomic publication" `Quick test_write_atomic ] );
      ( "attribution",
        [
          Alcotest.test_case "invariant across workers" `Quick
            test_attribution_invariance;
          Alcotest.test_case "invariant on domain pool" `Quick
            test_attribution_on_domains;
          Alcotest.test_case "journal mirrors stats" `Quick
            test_journal_from_farm;
        ] );
    ]
