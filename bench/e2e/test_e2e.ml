(* The benchmark's own tests: order statistics, self time over
   overlapping spans, a smoke run of every workload at about 1/50 size
   against the metric names BENCHMARK.json declares, and the image
   oracle failing on a tampered image. *)

module W = Odin_e2e.Workload
module Stats = Odin_e2e.Stats
module Harvest = Odin_e2e.Harvest
module Json = Telemetry.Json
module Recorder = Telemetry.Recorder
module Span = Telemetry.Span

let close = Alcotest.float 1e-9

(* ---------------- statistics ---------------- *)

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "p50" 50. (Stats.percentile 50. xs);
  Alcotest.check close "p99" 99. (Stats.percentile 99. xs);
  Alcotest.check close "p100" 100. (Stats.percentile 100. xs);
  Alcotest.check close "p0 is the minimum" 1. (Stats.percentile 0. xs);
  Alcotest.check close "one sample" 7. (Stats.percentile 99. [ 7. ]);
  Alcotest.check close "nearest rank, no interpolation" 1. (Stats.percentile 50. [ 2.; 1. ]);
  Alcotest.check close "rank rounds up" 3. (Stats.percentile 51. [ 1.; 2.; 3.; 4. ]);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.percentile 50. []))

let test_union () =
  Alcotest.check close "overlap counts once" 3. (Stats.union_length [ (0., 2.); (1., 2.) ]);
  Alcotest.check close "disjoint" 2. (Stats.union_length [ (5., 1.); (0., 1.) ]);
  Alcotest.check close "nested" 10. (Stats.union_length [ (0., 10.); (2., 3.) ]);
  Alcotest.check close "touching" 2. (Stats.union_length [ (0., 1.); (1., 1.) ]);
  Alcotest.check close "empty" 0. (Stats.union_length [])

let test_self_time () =
  Alcotest.check close "overlapping children: union, not sum" 5.
    (Stats.self_time ~start:0. ~dur:10. [ (1., 3.); (2., 4.) ]);
  Alcotest.check close "child clipped to the parent" 8.
    (Stats.self_time ~start:0. ~dur:10. [ (8., 6.) ])

(* A [compile] span over [0, 6] whose two [fragment] children ran on two
   domains over [1, 4] and [2, 5]: its self time is 6 - 4, not 6 - 6. *)
let test_harvest_overlap () =
  let clock start step = Telemetry.Clock.virtual_clock ~start ~step () in
  let r = Recorder.create ~clock:(clock 0. 6.) () in
  let sp = Span.enter r.Recorder.spans "compile" in
  let job start =
    let j = Recorder.fork ~clock:(clock start 3.) r in
    Recorder.with_span j "fragment" (fun () -> ());
    j
  in
  let a = job 1. and b = job 2. in
  Recorder.merge ~into:r ~parent:sp a;
  Recorder.merge ~into:r ~parent:sp b;
  Span.exit r.Recorder.spans sp;
  let h = Harvest.create () in
  Harvest.add_all h (Span.roots r.Recorder.spans);
  Alcotest.check close "compile self" 2. (Harvest.self h "compile");
  Alcotest.check close "fragment self" 6. (Harvest.self h "fragment");
  Alcotest.(check int) "fragment count" 2 (Harvest.count h "fragment")

(* ---------------- smoke run ---------------- *)

(* the benchmark pins these; the CI legs that set them test the library *)
let pin_env () =
  List.iter
    (fun (k, v) -> Unix.putenv k v)
    [ ("ODIN_INCR_LINK", "1"); ("ODIN_INCR_SCHED", "1"); ("ODIN_TIER", "0") ]

let spec =
  lazy
    (match Json.of_string (Support.Fsio.read_file "../../BENCHMARK.json") with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e))

let declared key =
  match Option.bind (Json.member key (Lazy.force spec)) Json.to_list with
  | None -> Alcotest.failf "BENCHMARK.json has no %s list" key
  | Some entries ->
    List.map
      (fun e ->
        ( Option.value ~default:"" (Option.bind (Json.member "name" e) Json.to_str),
          Option.value ~default:"" (Option.bind (Json.member "unit" e) Json.to_str) ))
      entries

let emitted ms = List.map (fun (x : W.metric) -> (x.W.name, x.W.unit_)) ms

let test_smoke () =
  pin_env ();
  Alcotest.(check (list string))
    "workloads" (List.map fst (declared "workloads"))
    (List.map W.to_string W.all);
  let pool = Support.Pool.create ~size:2 () in
  Fun.protect ~finally:(fun () -> Support.Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun w ->
      let label = W.to_string w in
      let r = W.run w ~config:W.smoke ~seed:3 ~traced:true pool in
      Alcotest.(check (list string)) (label ^ ": oracles pass") [] r.W.failures;
      Alcotest.(check int) (label ^ ": nothing failed") 0 r.W.failed;
      Alcotest.(check bool) (label ^ ": work attempted") true (r.W.attempted > 0);
      Alcotest.(check (list (pair string string)))
        (label ^ ": end-to-end metrics") (declared "end_to_end") (emitted r.W.end_to_end);
      Alcotest.(check (list (pair string string)))
        (label ^ ": per-layer metrics") (declared "per_layer") (emitted r.W.per_layer);
      List.iter
        (fun (x : W.metric) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s is positive" label x.W.name)
            true
            (Float.is_finite x.W.value && x.W.value > 0.))
        r.W.end_to_end)
    W.all

(* ---------------- oracle negative case ---------------- *)

let test_tampered_image () =
  pin_env ();
  let pool = Support.Pool.create ~size:1 () in
  let s = W.setup_session pool W.sqlite in
  let exe = Odin.Session.executable s in
  Alcotest.(check (list string)) "an untouched image passes" []
    (W.check_image ~reference:exe exe);
  let flip_first_byte = function
    | (base, bytes) :: rest when Bytes.length bytes > 0 ->
      let b = Bytes.copy bytes in
      Bytes.set b 0 (Char.chr ((Char.code (Bytes.get b 0) + 1) land 255));
      (base, b) :: rest
    | _ -> Alcotest.fail "empty first image segment"
  in
  s.Odin.Session.exe <- Some { exe with Link.Linker.image = flip_first_byte exe.Link.Linker.image };
  let failures, _ = W.check_session pool W.sqlite s in
  Alcotest.(check bool) "the session oracle reports the tampered image" true
    (List.mem "image digest differs from a fresh full build with the same probe states" failures)

let () =
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "interval union" `Quick test_union;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "harvest over overlapping jobs" `Quick test_harvest_overlap;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "smoke run of every workload" `Quick test_smoke;
          Alcotest.test_case "tampered image fails the oracle" `Quick test_tampered_image;
        ] );
    ]
