(* Parallel recompilation and the content-addressed object cache.

   The correctness bar for the domain pool is bit-identity: whatever the
   pool size, a session must produce the same per-fragment objects and
   the same VM behaviour. The cache tests pin down the campaign-facing
   contract: toggling a probe set off and on again relinks cached
   objects instead of recompiling (0 fragments compiled the second
   time) and the LRU bound evicts. *)

module Pool = Support.Pool

let target_src =
  {|
static int f0(int x) { if (x > 3) return x * 2; return x + 1; }
static int f1(int x) { int a = 0; for (int i = 0; i < 3; i++) a = a + f0(x + i); return a; }
static int f2(int x) { if ((x & 1) == 0) return f1(x); return f1(x + 1); }
static int f3(int x) { return f2(x) + f0(x); }
int main(int x) { return f3(x) + f2(x + 5); }
|}

let compile = Minic.Lower.compile

(* Max partition: one fragment per function, so every rebuild is a
   genuinely multi-fragment batch. *)
let make_session ?(pool = Pool.serial) ?objects () =
  let m = compile target_src in
  let session =
    Odin.Session.create ~mode:Odin.Partition.Max ~keep:[ "main" ]
      ~runtime_globals:[ Odin.Cov.runtime_global m ]
      ~pool ?objects m
  in
  let cov = Odin.Cov.setup session in
  ignore (Odin.Session.build session);
  (session, cov)

let toggle_all session enabled =
  Instr.Manager.iter
    (fun p -> Instr.Manager.set_enabled session.Odin.Session.manager p enabled)
    session.Odin.Session.manager

(* Per-fragment machine-code fingerprints: Objfile.t is pure data, so a
   digest of its marshalled bytes is a faithful bit-identity check. *)
let fingerprint session =
  Hashtbl.fold
    (fun fid obj acc -> (fid, Digest.string (Marshal.to_string obj [])) :: acc)
    session.Odin.Session.cache []
  |> List.sort compare

let run_main session x =
  let vm = Vm.create (Odin.Session.executable session) in
  let ret = Vm.call vm "main" [ Int64.of_int x ] in
  (ret, vm.Vm.cycles)

let probe_inputs = [ 0; 1; 5; 50 ]

let counter_value session name =
  Telemetry.Metrics.value
    (Telemetry.Metrics.counter
       session.Odin.Session.telemetry.Telemetry.Recorder.metrics name)

(* ---------------- bit-identity across pool sizes ---------------- *)

let build_observation size =
  let pool = if size = 1 then Pool.serial else Pool.create ~size () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let session, cov = make_session ~pool () in
  (* a refresh with a partial probe set exercises the incremental path
     under the pool too *)
  Instr.Manager.iter
    (fun p ->
      if p.Instr.Probe.pid mod 2 = 0 then
        Instr.Manager.set_enabled session.Odin.Session.manager p false)
    session.Odin.Session.manager;
  ignore (Odin.Session.refresh session);
  ignore cov;
  (fingerprint session, List.map (run_main session) probe_inputs)

let test_bit_identical_across_pool_sizes () =
  let fp1, res1 = build_observation 1 in
  List.iter
    (fun size ->
      let fp, res = build_observation size in
      Alcotest.(check bool)
        (Printf.sprintf "objects identical at %d jobs" size)
        true (fp = fp1);
      List.iter2
        (fun (r1, c1) (r, c) ->
          Alcotest.(check int64) "same result" r1 r;
          Alcotest.(check int) "same cycles" c1 c)
        res1 res)
    [ 2; 8 ]

let test_parallel_refresh_correct () =
  (* behaviour after a parallel refresh matches a fresh serial session *)
  let pool = Pool.create ~size:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let par, _ = make_session ~pool () in
  toggle_all par false;
  ignore (Odin.Session.refresh par);
  toggle_all par true;
  ignore (Odin.Session.refresh par);
  let serial, _ = make_session () in
  List.iter
    (fun x ->
      let rp, cp = run_main par x and rs, cs = run_main serial x in
      Alcotest.(check int64) "same result" rs rp;
      Alcotest.(check int) "same cycles" cs cp)
    probe_inputs

(* ---------------- content-addressed cache ---------------- *)

let test_cache_hit_on_toggle_round_trip () =
  let session, _ = make_session () in
  toggle_all session false;
  let ev_off = Option.get (Odin.Session.refresh session) in
  Alcotest.(check bool) "multi-fragment schedule" true
    (List.length ev_off.Odin.Session.ev_fragments >= 2);
  toggle_all session true;
  let ev_on = Option.get (Odin.Session.refresh session) in
  (* re-enabling reproduces the initial build's instrumented IR exactly,
     so every scheduled fragment is a cache hit: 0 compiled *)
  Alcotest.(check int) "all fragments hit"
    (List.length ev_on.Odin.Session.ev_fragments)
    ev_on.Odin.Session.ev_cache_hits;
  (* ... and a second round-trip hits the disabled variants too *)
  toggle_all session false;
  let ev_off2 = Option.get (Odin.Session.refresh session) in
  Alcotest.(check int) "disabled variants hit"
    (List.length ev_off2.Odin.Session.ev_fragments)
    ev_off2.Odin.Session.ev_cache_hits;
  Alcotest.(check bool) "hit counter > 0" true
    (counter_value session "session.fragment_cache_hits" > 0);
  (* cached objects must behave identically to freshly compiled ones *)
  toggle_all session true;
  ignore (Odin.Session.refresh session);
  let fresh, _ = make_session () in
  List.iter
    (fun x ->
      let rc, cc = run_main session x and rf, cf = run_main fresh x in
      Alcotest.(check int64) "same result" rf rc;
      Alcotest.(check int) "same cycles" cf cc)
    probe_inputs

let test_lru_eviction () =
  (* capacity 1 with a multi-fragment batch: every rebuild thrashes, so
     the round trip gets no hits and the eviction counter moves *)
  let session, _ =
    make_session ~objects:(Odin.Session.object_cache ~size:1 ()) ()
  in
  toggle_all session false;
  ignore (Odin.Session.refresh session);
  toggle_all session true;
  let ev_on = Option.get (Odin.Session.refresh session) in
  Alcotest.(check int) "no hits under thrash" 0 ev_on.Odin.Session.ev_cache_hits;
  Alcotest.(check bool) "evictions counted" true
    (counter_value session "session.fragment_cache_evictions" > 0);
  (* thrashing is a performance mode, never a correctness one *)
  let fresh, _ = make_session () in
  List.iter
    (fun x ->
      let rc, _ = run_main session x and rf, _ = run_main fresh x in
      Alcotest.(check int64) "same result" rf rc)
    probe_inputs

(* ---------------- compile-stage re-entrancy ---------------- *)

let test_concurrent_compile_identical_code () =
  (* the same fragment compiled concurrently from every pool slot must
     yield identical machine code — the audit's no-hidden-shared-state
     guarantee, asserted end to end *)
  let m = compile target_src in
  let pool = Pool.create ~size:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let compile_once _ =
    let clone = Ir.Clone.clone_module m in
    ignore (Opt.Pipeline.run_fragment ~max_rounds:2 clone);
    Digest.string (Marshal.to_string (Link.Objfile.of_module clone) [])
  in
  match Pool.map pool compile_once (List.init 8 Fun.id) with
  | [] -> Alcotest.fail "no results"
  | d0 :: rest ->
    List.iteri
      (fun i d ->
        Alcotest.(check string)
          (Printf.sprintf "copy %d identical" (i + 1))
          d0 d)
      rest

(* ---------------- pool semantics ---------------- *)

let test_pool_map_order_and_exceptions () =
  let pool = Pool.create ~size:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "order preserved"
    (List.map (fun x -> x * 2) xs)
    (Pool.map pool (fun x -> x * 2) xs);
  Alcotest.(check bool) "first exception propagates" true
    (try
       ignore (Pool.map pool (fun x -> if x >= 5 then failwith "boom" else x) xs);
       false
     with Failure msg -> msg = "boom");
  (* the pool survives a failed batch *)
  Alcotest.(check (list int)) "usable after failure" [ 2; 4 ]
    (Pool.map pool (fun x -> x * 2) [ 1; 2 ])

let test_pool_serial_and_env () =
  Alcotest.(check int) "serial size" 1 (Pool.size Pool.serial);
  Alcotest.(check (list int))
    "serial map inline" [ 1; 4; 9 ]
    (Pool.map Pool.serial (fun x -> x * x) [ 1; 2; 3 ])

(* Regression: a raising job must not abandon its batch — every sibling
   job still runs to completion (drain/join barrier) before the
   exception propagates, and the pool stays usable. The old
   implementation could leave outstanding jobs running (or queued) when
   the caller re-raised early, leaking work into the next batch. *)
let test_pool_exception_joins_all_jobs () =
  let pool = Pool.create ~size:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let started = Atomic.make 0 in
  let finished = Atomic.make 0 in
  (for _ = 1 to 5 do
     Atomic.set started 0;
     Atomic.set finished 0;
     match
       Pool.map pool
         (fun i ->
           Atomic.incr started;
           if i = 3 then failwith "boom";
           (* stagger siblings so some are still mid-flight when the
              failing job raises *)
           ignore (Sys.opaque_identity (Hashtbl.hash i));
           Atomic.incr finished;
           i)
         (List.init 8 Fun.id)
     with
     | _ -> Alcotest.fail "batch with failing job returned"
     | exception Failure msg ->
       Alcotest.(check string) "right exception" "boom" msg;
       (* join barrier: every job ran exactly once, 7 finished *)
       Alcotest.(check int) "all jobs started" 8 (Atomic.get started);
       Alcotest.(check int) "siblings completed" 7 (Atomic.get finished)
   done);
  (* no leaked jobs: the next batch sees only its own work *)
  Alcotest.(check (list int))
    "pool clean after failures" [ 0; 10; 20 ]
    (Pool.map pool (fun x -> x * 10) [ 0; 1; 2 ])

(* ---------------- span ring buffer ---------------- *)

let test_span_ring_buffer () =
  let r = Telemetry.Recorder.create ~span_limit:8 () in
  let spans = r.Telemetry.Recorder.spans in
  Telemetry.Recorder.with_span r "root" (fun () ->
      for _ = 1 to 100 do
        Telemetry.Recorder.with_span r "child" (fun () ->
            Telemetry.Recorder.count (Some r) "execs")
      done);
  let root = List.hd (Telemetry.Span.roots spans) in
  let kept = List.length (Telemetry.Span.children root) in
  Alcotest.(check bool) "bounded" true (kept < 16);
  Alcotest.(check int) "kept + dropped = total" 100
    (kept + Telemetry.Span.dropped_children root);
  (* counters stay exact while spans are sampled *)
  Alcotest.(check int) "counter exact" 100
    (Telemetry.Metrics.value
       (Telemetry.Metrics.counter r.Telemetry.Recorder.metrics "execs"))

(* ---------------- recorder fork / merge ---------------- *)

let test_recorder_fork_merge () =
  let r =
    Telemetry.Recorder.create
      ~clock:(Telemetry.Clock.virtual_clock ~step:1.0 ())
      ()
  in
  let parent = Telemetry.Span.enter r.Telemetry.Recorder.spans "join" in
  let forks =
    List.map
      (fun i ->
        let f = Telemetry.Recorder.fork r in
        Telemetry.Recorder.with_span f
          (Printf.sprintf "job%d" i)
          (fun () -> Telemetry.Recorder.count (Some f) ~by:(i + 1) "work");
        Telemetry.Recorder.observe (Some f) "ms" (float_of_int i);
        f)
      [ 0; 1; 2 ]
  in
  List.iter
    (fun f -> Telemetry.Recorder.merge ~into:r ~parent f)
    forks;
  Telemetry.Span.exit r.Telemetry.Recorder.spans parent;
  Alcotest.(check int) "counter summed" 6
    (Telemetry.Metrics.value
       (Telemetry.Metrics.counter r.Telemetry.Recorder.metrics "work"));
  Alcotest.(check int) "histogram merged" 3
    (Telemetry.Histogram.count
       (Telemetry.Metrics.histogram r.Telemetry.Recorder.metrics "ms"));
  Alcotest.(check (list string))
    "adopted in join order" [ "job0"; "job1"; "job2" ]
    (List.map Telemetry.Span.name (Telemetry.Span.children parent))

(* ---------------- CSV export ---------------- *)

let test_csv_export () =
  let r =
    Telemetry.Recorder.create
      ~clock:(Telemetry.Clock.virtual_clock ~step:1.0 ())
      ()
  in
  let m = r.Telemetry.Recorder.metrics in
  let cov = Telemetry.Metrics.counter m ~series:true "cov" in
  Telemetry.Metrics.incr cov;
  Telemetry.Metrics.incr cov;
  List.iter (Telemetry.Metrics.observe m "cycles") [ 3.; 5.; 100. ];
  let doc = Telemetry.Csv.render ~extra_rows:[ Telemetry.Csv.row [ "recompile"; "x,y"; "0"; "1" ] ] r in
  let has line = List.mem line (String.split_on_char '\n' doc) in
  Alcotest.(check bool) "header" true (has "kind,name,x,value");
  Alcotest.(check bool) "counter row" true (has "counter,cov,,2");
  Alcotest.(check bool) "series rows" true (has "series,cov,1.000000,2");
  Alcotest.(check bool) "bucket 2 (for 3.)" true (has "histogram,cycles,2.000000,1");
  Alcotest.(check bool) "bucket 4 (for 5.)" true (has "histogram,cycles,4.000000,1");
  Alcotest.(check bool) "bucket 64 (for 100.)" true (has "histogram,cycles,64.000000,1");
  Alcotest.(check bool) "summary count" true (has "summary,cycles,count,3");
  Alcotest.(check bool) "quoted extra row" true (has "recompile,\"x,y\",0,1")

let () =
  Alcotest.run "parallel"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "pool sizes 1/2/8" `Slow
            test_bit_identical_across_pool_sizes;
          Alcotest.test_case "parallel refresh correct" `Quick
            test_parallel_refresh_correct;
        ] );
      ( "object-cache",
        [
          Alcotest.test_case "toggle round trip hits" `Quick
            test_cache_hit_on_toggle_round_trip;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
        ] );
      ( "re-entrancy",
        [
          Alcotest.test_case "concurrent compile identical" `Quick
            test_concurrent_compile_identical_code;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map order + exceptions" `Quick
            test_pool_map_order_and_exceptions;
          Alcotest.test_case "serial" `Quick test_pool_serial_and_env;
          Alcotest.test_case "exception joins all jobs" `Quick
            test_pool_exception_joins_all_jobs;
        ] );
      ( "telemetry-concurrency",
        [
          Alcotest.test_case "span ring buffer" `Quick test_span_ring_buffer;
          Alcotest.test_case "fork/merge" `Quick test_recorder_fork_merge;
          Alcotest.test_case "csv export" `Quick test_csv_export;
        ] );
    ]
