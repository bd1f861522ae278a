(** The four workloads of the end-to-end benchmark, their correctness
    oracles and their metrics.

    Everything is measured from outside the program: the benchmark times
    calls to the public API ([Workloads.Generate.compile],
    [Odin.Session], [Vm], [Farm.run], [Mutate.Analysis.run]). A traced
    run additionally reads the span trees and counters the program
    already records, and wraps a few API calls in spans of its own. *)

module Session = Odin.Session
module Recorder = Telemetry.Recorder
module Span = Telemetry.Span

let entry = "target_main"
let host = Workloads.Generate.host_functions

(** The scaled-up sqlite profile of [bench/main.ml]'s relink, tier and
    mutate sections: 645 fragments and 2,723 coverage probes under Max
    partitioning. sqlite-xxl is left out: its [Session.create] alone
    takes about a minute. *)
let sqlite_xl =
  {
    (Workloads.Profile.find_exn "sqlite") with
    Workloads.Profile.name = "sqlite-xl";
    n_helpers = 400;
    n_tiny = 200;
    n_parsers = 24;
  }

let sqlite = Workloads.Profile.find_exn "sqlite"

type name = Probe_flip | Probe_churn | Fuzz_farm | Mutate_xl

let all = [ Probe_flip; Probe_churn; Fuzz_farm; Mutate_xl ]

let to_string = function
  | Probe_flip -> "probe-flip"
  | Probe_churn -> "probe-churn"
  | Fuzz_farm -> "fuzz-farm"
  | Mutate_xl -> "mutate-xl"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(** What one run does. *)
type config = {
  program : Workloads.Profile.t;  (** target of probe-flip, probe-churn, mutate-xl *)
  flips : int;  (** probe-flip: single-probe refreshes *)
  churns : int;  (** probe-churn: four-probe refreshes *)
  execs : int;  (** fuzz-farm: mutated executions on [sqlite] *)
  mutants : int;  (** mutate-xl: mutants *)
  setup_reps : int;  (** set-ups timed for [setup_s]; the median is reported *)
}

(** A run of [seconds]: each timed loop takes a little less than that on
    a 2-core x86-64 host, which measured 3,200 flips/s, 77 four-probe
    refreshes/s, 2,450 execs/s and 2.2 mutants/s. The sizes depend on
    [seconds] only, never on measured speed, so two commits always do
    the same work. *)
let config ~seconds =
  {
    program = sqlite_xl;
    flips = 3000 * seconds;
    churns = 72 * seconds;
    execs = 2300 * seconds;
    mutants = 2 * seconds;
    setup_reps = 3;
  }

(** A sliver of a 15-second run on the plain sqlite profile, for the
    test suite: every code path and oracle in a few seconds. *)
let smoke =
  { program = sqlite; flips = 600; churns = 30; execs = 100; mutants = 2; setup_reps = 1 }

type metric = { name : string; value : float; unit_ : string }

type result = {
  workload : name;
  failures : string list;  (** oracle violations; empty when outputs are correct *)
  attempted : int;
  failed : int;  (** operations that did not complete cleanly *)
  end_to_end : metric list;  (** from the untraced measurement *)
  per_layer : metric list;  (** traced runs only; the same names on every workload *)
  extra : metric list;  (** traced runs only; layers only this workload runs *)
}

let m name unit_ value = { name; value; unit_ }

(* ------------------------------------------------------------------ *)
(* Timing helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* seconds on the monotonic clock, nanosecond resolution: a memo-served
   flip takes tens of microseconds *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* a benchmark-side span; [bench] is [None] in untraced runs *)
let span bench name f = Recorder.span_opt bench ~cat:"bench" name f

(** Median wall time of [reps] calls of [f] from a settled heap, and the
    last call's value. *)
let median_setup reps f =
  let rec go k times last =
    if k = 0 then (Option.get last, Support.Stats.median times)
    else begin
      Gc.full_major ();
      let x, t = timed f in
      go (k - 1) (t :: times) (Some x)
    end
  in
  go (max 1 reps) [] None

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let spans_named bench n =
  match bench with
  | None -> []
  | Some r -> Span.find_all r.Recorder.spans n

let mean_ms spans =
  match spans with
  | [] -> 0.
  | _ ->
    1000.
    *. List.fold_left (fun a sp -> a +. Span.duration sp) 0. spans
    /. float_of_int (List.length spans)

(** The end-to-end metrics: set-up time, units of work per second, the
    median and 99th-percentile time of one unit, and peak heap. *)
let end_to_end ~setup ~throughput ~latencies ~heap =
  let ms = List.map (fun x -> 1000. *. x) latencies in
  [
    m "setup_s" "s" setup;
    m "throughput_per_s" "1/s" throughput;
    m "latency_p50_ms" "ms" (Stats.percentile 50. ms);
    m "latency_p99_ms" "ms" (Stats.percentile 99. ms);
    m "peak_heap_mb" "MB" heap;
  ]

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

(** Digest of everything a linked image is: data bytes, symbol
    addresses and machine code. *)
let image_digest (exe : Link.Linker.exe) =
  let sorted h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare in
  let image =
    List.sort compare
      (List.map (fun (b, by) -> (b, Bytes.to_string by)) exe.Link.Linker.image)
  in
  Digest.string
    (Marshal.to_string (image, sorted exe.Link.Linker.sym_addr, sorted exe.Link.Linker.funcs) [])

let check_image ~reference exe =
  if Digest.equal (image_digest exe) (image_digest reference) then []
  else [ "image digest differs from a fresh full build with the same probe states" ]

(** Run [entry] on [input] in a fresh VM: the return value and cycles,
    or the trap. *)
let run_vm ?bench exe input =
  span bench "vm.exec" (fun () ->
      let vm = Vm.create exe in
      List.iter (fun n -> Vm.register_host vm n (fun _ -> 0L)) host;
      let addr = Vm.write_buffer vm input in
      match Vm.call vm entry [ addr; Int64.of_int (String.length input) ] with
      | v -> Ok (v, vm.Vm.cycles)
      | exception Vm.Fault msg -> Error msg)

let run_interp pristine input =
  let st = Ir.Interp.create pristine in
  List.iter (fun n -> Ir.Interp.register_host st n (fun _ _ -> 0L)) host;
  let addr = Ir.Interp.alloc_input st input in
  match Ir.Interp.run st entry [ addr; Int64.of_int (String.length input) ] with
  | v -> Ok v
  | exception Ir.Interp.Trap msg -> Error msg

(** Compiled code must mean what the reference interpreter says the
    pristine IR means: same return value, or a trap on both sides.
    Returns the violations and the VM cycles of every input. *)
let check_returns ?bench exe pristine inputs =
  let rows =
    List.mapi
      (fun i input ->
        match (run_vm ?bench exe input, run_interp pristine input) with
        | Ok (v, c), Ok w when Int64.equal v w -> (None, c)
        | Ok (v, c), Ok w ->
          (Some (Printf.sprintf "input %d: vm returned %Ld, interpreter %Ld" i v w), c)
        | Error _, Error _ -> (None, 0)
        | Ok (_, c), Error e ->
          (Some (Printf.sprintf "input %d: interpreter trapped (%s), vm did not" i e), c)
        | Error e, Ok _ ->
          (Some (Printf.sprintf "input %d: vm trapped (%s), interpreter did not" i e), 0))
      inputs
  in
  (List.filter_map fst rows, List.map snd rows)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

(** Counters the session records on every rebuild; the layer ratios are
    computed from them. *)
let counter_names =
  [ "session.rebuilds"; "session.fragments_scheduled"; "session.fragments_recompiled";
    "session.fragment_cache_hits"; "session.opt_memo_hits"; "session.cache_shard_waits";
    "session.schedule_visited"; "link.relinks_incremental"; "link.relinks_full";
    "link.symbols_patched" ]

let counters r = List.map (fun n -> (n, Recorder.value (Some r) n)) counter_names
let counters_diff a b = List.map2 (fun (n, x) (_, y) -> (n, x - y)) a b
let counters_sum a b = List.map2 (fun (n, x) (_, y) -> (n, x + y)) a b

(** The per-layer metrics every workload reports, from the harvested
    program spans [h], the program counters [c], the benchmark's own
    spans, the VM cycles of the oracle replay and the tracing overhead. *)
let layer_metrics ~bench ~h ~c ~cycles ~overhead_pct =
  let cf n = float_of_int (List.assoc n c) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let scheduled = cf "session.fragments_scheduled" in
  let rebuilds = cf "session.rebuilds" in
  let per_session ks =
    let n = Harvest.count h (List.hd ks) in
    if n = 0 then 0.
    else 1000. *. List.fold_left (fun a k -> a +. Harvest.total h k) 0. ks /. float_of_int n
  in
  let vm_us =
    match spans_named bench "vm.exec" with
    | [] -> 0.
    | sps -> 1e6 *. Stats.percentile 50. (List.map Span.duration sps)
  in
  [
    m "minic.compile_ms" "ms" (mean_ms (spans_named bench "minic.compile"));
    m "odin.create_ms" "ms" (per_session [ "classify"; "partition" ]);
    m "odin.build_ms" "ms" (per_session [ "build" ]);
  ]
  @ List.map (fun (n, v) -> m n "ms" v) (Harvest.layer_ms h)
  @ [
      m "session.fragments_per_rebuild" "count" (ratio scheduled rebuilds);
      m "session.visited_per_rebuild" "count" (ratio (cf "session.schedule_visited") rebuilds);
      m "session.memo_hit_ratio" "ratio" (ratio (cf "session.opt_memo_hits") scheduled);
      m "session.cache_hit_ratio" "ratio"
        (ratio (cf "session.fragment_cache_hits" -. cf "session.opt_memo_hits") scheduled);
      m "session.recompile_ratio" "ratio" (ratio (cf "session.fragments_recompiled") scheduled);
      m "session.cache_shard_waits" "count" (cf "session.cache_shard_waits");
      m "link.incremental_ratio" "ratio"
        (ratio (cf "link.relinks_incremental")
           (cf "link.relinks_incremental" +. cf "link.relinks_full"));
      m "link.symbols_patched_per_relink" "count"
        (ratio (cf "link.symbols_patched") (cf "link.relinks_incremental"));
      m "vm.exec_us" "us" vm_us;
      m "vm.cycles_per_exec" "count"
        (ratio
           (float_of_int (List.fold_left ( + ) 0 cycles))
           (float_of_int (List.length cycles)));
      m "bench.trace_overhead_pct" "%" overhead_pct;
    ]

let overhead_pct ~untraced ~traced = 100. *. (traced -. untraced) /. untraced

(* ------------------------------------------------------------------ *)
(* probe-flip and probe-churn: one long-lived session                  *)
(* ------------------------------------------------------------------ *)

(** Spans the session keeps per parent. A bounded window keeps the heap
    from growing with the loop; traced runs harvest each refresh's spans
    as soon as it ends. *)
let session_span_limit = 16

let create_session ?(mode = Odin.Partition.Max) pool m =
  Session.create ~mode ~keep:[ entry ]
    ~runtime_globals:[ Odin.Cov.runtime_global m ]
    ~host ~pool ~incremental_link:true ~incremental_sched:true ~tiered:false
    ~telemetry:(Recorder.create ~span_limit:session_span_limit ())
    m

(** Source to first runnable image. *)
let setup_session ?bench pool program =
  let m = span bench "minic.compile" (fun () -> Workloads.Generate.compile program) in
  let s = create_session pool m in
  ignore (span bench "instr.cov_setup" (fun () -> Odin.Cov.setup s));
  ignore (Session.build s);
  s

let pool_size = 16

(** The probe-flip pool: one probe in each of [pool_size] fragments at
    evenly spaced ranks of the fragments ordered by probe count, largest
    first. Every seed's pool thus spans the same range of fragment sizes
    and always includes the giant interpreter fragment, so the flip tail
    does not depend on the luck of the draw; the seed picks the probe
    inside each fragment and the flip sequence. *)
let flip_pool rng (s : Session.t) =
  let by_frag = Hashtbl.create 256 in
  List.iter
    (fun (p : Instr.Probe.t) ->
      match Odin.Partition.fragment_of s.Session.plan p.Instr.Probe.target with
      | Some fid ->
        Hashtbl.replace by_frag fid
          (p :: Option.value ~default:[] (Hashtbl.find_opt by_frag fid))
      | None -> ())
    (Instr.Manager.to_list s.Session.manager);
  let frags =
    Hashtbl.fold (fun fid ps acc -> (List.length ps, fid, List.rev ps) :: acc) by_frag []
    |> List.sort (fun (na, fa, _) (nb, fb, _) -> compare (nb, fa) (na, fb))
    |> Array.of_list
  in
  let n = Array.length frags in
  Array.init pool_size (fun i ->
      let _, _, ps = frags.(i * (n - 1) / (pool_size - 1)) in
      Support.Rng.choose rng ps)

let flip (p : Instr.Probe.t) = (p, not p.Instr.Probe.enabled)

(** Batches of [k] distinct probes, each flipped, cut in order from
    successive seeded permutations of every probe in the program. Each
    pass flips every probe once, so how often a batch lands in the giant
    interpreter fragment hardly depends on the seed, and neither does
    the work a run does. *)
let churn_batches rng probes k =
  let perm = ref [||] and pos = ref 0 in
  let next () =
    if !pos >= Array.length !perm then begin
      perm := Support.Rng.shuffle rng probes;
      pos := 0
    end;
    incr pos;
    !perm.(!pos - 1)
  in
  fun () ->
    let rec draw acc =
      if List.length acc = k then acc
      else
        let p = next () in
        if List.memq p acc then draw acc else draw (p :: acc)
    in
    List.rev_map flip (draw [])

type loop = {
  latencies : float array;  (** seconds, toggle to runnable image *)
  wall : float;
  failed : int;
}

(** A closed loop with one client: the next toggle set is applied only
    once the previous image is runnable. [harvest] receives the session's
    spans of each refresh as soon as it ends. *)
let refresh_loop ?harvest (s : Session.t) n draw =
  let latencies = Array.make n 0. in
  let failed = ref 0 in
  let spans = s.Session.telemetry.Recorder.spans in
  let t0 = now () in
  for i = 0 to n - 1 do
    let toggles = draw () in
    let since = Unix.gettimeofday () (* the session's span clock *) in
    let u0 = now () in
    let outcome = Session.refresh_toggles s toggles in
    ignore (Session.executable s);
    latencies.(i) <- now () -. u0;
    (match outcome with Some (Session.Ok, _) -> () | _ -> incr failed);
    match harvest with
    | Some h ->
      Harvest.add_all h (List.filter (fun sp -> Span.start sp >= since) (Span.roots spans))
    | None -> ()
  done;
  { latencies; wall = now () -. t0; failed = !failed }

(** Outputs of a session after its loop: its image equals a fresh full
    build with the same probe states, and its code computes what the
    interpreter computes on the pristine program. *)
let check_session ?bench pool program (s : Session.t) =
  let fresh = create_session pool (Workloads.Generate.compile program) in
  ignore (Odin.Cov.setup fresh);
  List.iter2
    (fun (p : Instr.Probe.t) (q : Instr.Probe.t) ->
      Instr.Manager.set_enabled fresh.Session.manager q p.Instr.Probe.enabled)
    (Instr.Manager.to_list s.Session.manager)
    (Instr.Manager.to_list fresh.Session.manager);
  ignore (Session.build fresh);
  let image = check_image ~reference:(Session.executable fresh) (Session.executable s) in
  let returns, cycles =
    check_returns ?bench (Session.executable s)
      (Workloads.Generate.compile program)
      (Workloads.Generate.seed_inputs ~count:8 program)
  in
  (image @ returns, cycles)

(** The toggles of one timed loop on [s], drawn from [seed]: the loop
    length and a function giving the next refresh's toggles. *)
let prepare w config ~seed (s : Session.t) =
  let rng = Support.Rng.create seed in
  match w with
  | Probe_flip ->
    let hot = flip_pool rng s in
    (* both states of every pool probe are compiled before timing, so
       the timed flips are served by the memo *)
    Array.iter
      (fun p ->
        ignore (Session.refresh_toggles s [ flip p ]);
        ignore (Session.refresh_toggles s [ flip p ]))
      hot;
    (config.flips, fun () -> [ flip (Support.Rng.choose_arr rng hot) ])
  | _ ->
    let probes = Array.of_list (Instr.Manager.to_list s.Session.manager) in
    (config.churns, churn_batches rng probes 4)

let session_workload w ~config ~seed ~traced pool =
  let bench = if traced then Some (Recorder.create ()) else None in
  let s, setup =
    median_setup config.setup_reps (fun () -> setup_session ?bench pool config.program)
  in
  let n, draw = prepare w config ~seed s in
  (* the discarded set-up sessions are garbage: collect them now rather
     than inside the timed loop *)
  Gc.full_major ();
  let loop = refresh_loop s n draw in
  let e2e =
    end_to_end ~setup ~heap:(peak_heap_mb ())
      ~throughput:(float_of_int n /. loop.wall)
      ~latencies:(Array.to_list loop.latencies)
  in
  let result ~failures ~runs ~failed =
    { workload = w; failures; attempted = runs * n; failed; end_to_end = e2e;
      per_layer = []; extra = [] }
  in
  if not traced then
    result ~failures:(fst (check_session pool config.program s)) ~runs:1 ~failed:loop.failed
  else begin
    (* the traced loop repeats the untraced one exactly on a fresh
       session, so the two walls give the tracing overhead; the layers
       are those of that session's build and of its traced loop *)
    let t = setup_session ?bench pool config.program in
    let r = t.Session.telemetry in
    (* the session keeps a bounded window of spans: take its set-up
       spans and counters before any refresh pushes them out *)
    let h = Harvest.create () in
    Harvest.add_all h (Span.roots r.Recorder.spans);
    let c_setup = counters r in
    let n, draw = prepare w config ~seed t in
    let c_before = counters r in
    Gc.full_major ();
    let loop_h = Harvest.create () in
    let traced_loop = refresh_loop ~harvest:loop_h t n draw in
    Harvest.merge ~into:h loop_h;
    let c = counters_sum c_setup (counters_diff (counters r) c_before) in
    let failures, cycles = check_session ?bench pool config.program t in
    let refresh_total = Array.fold_left ( +. ) 0. traced_loop.latencies in
    {
      (result ~failures ~runs:2 ~failed:(loop.failed + traced_loop.failed)) with
      per_layer =
        layer_metrics ~bench ~h ~c ~cycles
          ~overhead_pct:(overhead_pct ~untraced:loop.wall ~traced:traced_loop.wall);
      extra =
        [
          m "instr.cov_setup_ms" "ms" (mean_ms (spans_named bench "instr.cov_setup"));
          (* share of the timed refreshes the harvested layers explain *)
          m "bench.attributed_pct" "%" (100. *. Harvest.attributed loop_h /. refresh_total);
        ];
    }
  end

(* ------------------------------------------------------------------ *)
(* fuzz-farm and mutate-xl: one campaign through a library entry point *)
(* ------------------------------------------------------------------ *)

let first n l = List.filteri (fun i _ -> i < n) l

(* One worker, for the reason [mutate_run] gives: with two, execs/s of
   the same code and seed ranged from 3,030 to 3,850 on a 2-core host,
   a 20% spread, against 5% with one. See [pool_size] for its pool. *)
let farm_run ?telemetry pool ~seed ~execs m =
  Farm.run ?telemetry ~pool ~incremental_link:true ~incremental_sched:true ~entry
    ~seeds:(Workloads.Generate.seed_inputs ~count:2 sqlite)
    {
      Farm.default_config with
      Farm.fc_workers = 1;
      fc_execs = execs;
      fc_sync_interval = 50;
      fc_seed = seed;
    }
    m

(** No worker may die, and the final corpus (first 64 inputs) must run
    the same on a fresh coverage build as in the interpreter. *)
let check_farm ?bench pool (st : Farm.stats) =
  let dead =
    List.map (fun (w, why) -> Printf.sprintf "farm worker %d died: %s" w why) st.Farm.fs_dead
  in
  let s = create_session ~mode:Odin.Partition.Auto pool (Workloads.Generate.compile sqlite) in
  ignore (Odin.Cov.setup s);
  ignore (Session.build s);
  let returns, cycles =
    check_returns ?bench (Session.executable s) (Workloads.Generate.compile sqlite)
      (first 64 st.Farm.fs_corpus)
  in
  (dead @ returns, cycles)

(** The seed picks the 3-test suite from 16 profile seed inputs. *)
let mutate_suite program ~seed =
  let inputs = Array.of_list (Workloads.Generate.seed_inputs ~count:16 program) in
  first 3 (Array.to_list (Support.Rng.shuffle (Support.Rng.create seed) inputs))

(* One worker: with two, the workers' domains stall on each other's
   stop-the-world minor collections, and the run-to-run spread of
   mutants/s on a 2-core host was 11% against 3-7% with one. *)
let mutate_run ?telemetry ~suite ~mutants m =
  Mutate.Analysis.run ?telemetry ~entry ~suite
    {
      Mutate.Analysis.default_config with
      Mutate.Analysis.mc_workers = 1;
      mc_mode = Mutate.Analysis.Domains;
      mc_limit = Some mutants;
      mc_chunk = 32;
    }
    m

(** One compile per worker and every mutant served by a relink, a
    verdict for every mutant requested, and a pristine suite that runs
    the same compiled as in the interpreter. *)
let check_mutate ?bench pool program ~mutants ~suite
    ((mx : Mutate.Analysis.matrix), (st : Mutate.Analysis.stats)) =
  let open Mutate.Analysis in
  let fail cond msg = if cond then [] else [ msg ] in
  let s = Session.create ~keep:[ entry ] ~host ~pool (Workloads.Generate.compile program) in
  ignore (Session.build s);
  let returns, cycles =
    check_returns ?bench (Session.executable s) (Workloads.Generate.compile program) suite
  in
  ( fail (st.s_full_links = st.s_initial_links)
      (Printf.sprintf "%d full links for %d initial builds" st.s_full_links st.s_initial_links)
    @ fail
        (mx.m_killed + mx.m_survived + mx.m_timeout = mx.m_generated)
        "verdicts do not add up to the mutants generated"
    @ fail (mx.m_generated = mutants)
        (Printf.sprintf "%d of %d mutants have a row" mx.m_generated mutants)
    @ fail (st.s_retired = []) "a mutation worker retired"
    @ returns,
    cycles )

(** A workload whose unit of work is one whole campaign over [program]:
    [campaign ?telemetry m ~size] runs it, [units] counts the work it
    did, [check] is its oracle and [extra] its own layer metrics. The
    set-up is a campaign of size 0. *)
let campaign_workload w ~config ~traced ~program ~size
    ~(campaign : ?telemetry:Recorder.t -> Ir.Modul.t -> size:int -> 'a) ~units
    ~(check : ?bench:Recorder.t -> 'a -> string list * int list) ~attempted ~failed ~extra =
  let bench = if traced then Some (Recorder.create ()) else None in
  let compile () = span bench "minic.compile" (fun () -> Workloads.Generate.compile program) in
  let (), setup =
    median_setup config.setup_reps (fun () -> ignore (campaign (compile ()) ~size:0))
  in
  let run ?telemetry () =
    let m = compile () in
    Gc.full_major ();
    timed (fun () -> campaign ?telemetry m ~size)
  in
  let out, wall = run () in
  let e2e =
    end_to_end ~setup ~heap:(peak_heap_mb ())
      ~throughput:(float_of_int (units out) /. wall)
      ~latencies:[ wall ]
  in
  let result ~outs ~failures =
    let sum f = List.fold_left (fun a o -> a + f o) 0 outs in
    { workload = w; failures; attempted = sum attempted; failed = sum failed;
      end_to_end = e2e; per_layer = []; extra = [] }
  in
  if not traced then result ~outs:[ out ] ~failures:(fst (check out))
  else begin
    (* a second, traced campaign; the first is the overhead reference *)
    let r = Recorder.create () in
    let traced_out, traced_wall = run ~telemetry:r () in
    let h = Harvest.create () in
    Harvest.add_all h (Span.roots r.Recorder.spans);
    let failures, cycles = check ?bench traced_out in
    {
      (result ~outs:[ out; traced_out ] ~failures) with
      per_layer =
        layer_metrics ~bench ~h ~c:(counters r) ~cycles
          ~overhead_pct:(overhead_pct ~untraced:wall ~traced:traced_wall);
      extra = extra ~h traced_out;
    }
  end

let farm_workload ~config ~seed ~traced pool =
  campaign_workload Fuzz_farm ~config ~traced ~program:sqlite ~size:config.execs
    ~campaign:(fun ?telemetry m ~size -> farm_run ?telemetry pool ~seed ~execs:size m)
    ~units:(fun st -> st.Farm.fs_execs)
    ~attempted:(fun st -> st.Farm.fs_execs + st.Farm.fs_skipped)
    ~failed:(fun st -> st.Farm.fs_skipped)
    ~check:(fun ?bench st -> check_farm ?bench pool st)
    ~extra:(fun ~h st ->
      [
        m "farm.spawn_ms" "ms" (1000. *. Harvest.total h "spawn");
        m "farm.worker_round_ms" "ms" (1000. *. Harvest.total h "worker-round");
        m "farm.sync_ms" "ms" (1000. *. Harvest.total h "sync");
        m "farm.recompiles" "count" (float_of_int st.Farm.fs_recompiles);
        m "farm.dedup_pct" "%" (Farm.dedup_rate st);
      ])

let mutate_workload ~config ~seed ~traced pool =
  let program = config.program in
  let suite = mutate_suite program ~seed in
  let mutants = config.mutants in
  campaign_workload Mutate_xl ~config ~traced ~program ~size:mutants
    ~campaign:(fun ?telemetry m ~size -> mutate_run ?telemetry ~suite ~mutants:size m)
    ~units:(fun (mx, _) -> mx.Mutate.Analysis.m_generated)
    ~attempted:(fun _ -> mutants)
    ~failed:(fun (mx, st) ->
      mutants - mx.Mutate.Analysis.m_generated + List.length st.Mutate.Analysis.s_retired)
    ~check:(fun ?bench out -> check_mutate ?bench pool program ~mutants ~suite out)
    ~extra:(fun ~h ((mx : Mutate.Analysis.matrix), (st : Mutate.Analysis.stats)) ->
      let round = Harvest.total h "worker-round" and suite = Harvest.self h "worker-round" in
      [
        (* inside a worker round, everything but the refreshes is the
           suite running on the VM *)
        m "mutate.refresh_ms" "ms" (1000. *. (round -. suite));
        m "mutate.suite_ms" "ms" (1000. *. suite);
        m "mutate.incr_links_per_mutant" "ratio"
          (float_of_int st.Mutate.Analysis.s_incr_links
          /. float_of_int (max 1 mx.Mutate.Analysis.m_generated));
        m "mutate.full_links" "count" (float_of_int st.Mutate.Analysis.s_full_links);
      ])

(** Domains of the pool a workload's API calls are given. The farm's
    pool only compiles its few recompiles, while its VM executions
    allocate fast; an idle second domain must join every stop-the-world
    minor collection, which on a 2-core host made the farm's execs/s
    vary 7% between runs of the same seed, against 1% without it. *)
let pool_size = function Fuzz_farm -> 1 | Probe_flip | Probe_churn | Mutate_xl -> 2

(** Run one workload. [pool] is the pool every API that takes one is
    given, of [pool_size w] domains. *)
let run w ~config ~seed ~traced pool =
  match w with
  | Probe_flip | Probe_churn -> session_workload w ~config ~seed ~traced pool
  | Fuzz_farm -> farm_workload ~config ~seed ~traced pool
  | Mutate_xl -> mutate_workload ~config ~seed ~traced pool
