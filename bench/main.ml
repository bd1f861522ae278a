(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) plus the Figure 3 motivation breakdown.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig8    -- one experiment
     dune exec bench/main.exe -- quick   -- reduced workload set

   Execution durations are deterministic VM cycle counts; recompilation
   and link durations are wall-clock measurements of this host (absolute
   values are smaller than the paper's LLVM-based numbers — our compiler
   and programs are smaller — but the relative shape is the experiment).
   Wall-clock benchmarking of Odin's own operations lives in bench/e2e. *)

let entry = "target_main"

module Snap = Telemetry.Snapshot

(* where BENCH_<section>.json snapshots land; --out-dir overrides *)
let out_dir = ref "."
let quick_mode = ref false

type config = { fuzz_execs : int; rounds : int; programs : Workloads.Profile.t list }

let full_config =
  { fuzz_execs = 300; rounds = 2; programs = Workloads.Profile.all }

let quick_config =
  {
    fuzz_execs = 80;
    rounds = 2;
    programs =
      List.filter
        (fun (p : Workloads.Profile.t) ->
          List.mem p.Workloads.Profile.name [ "libpng"; "json"; "sqlite" ])
        Workloads.Profile.all;
  }

(* ------------------------------------------------------------------ *)
(* Shared preparation (compile + fuzz once per program)                *)
(* ------------------------------------------------------------------ *)

let prepared : (string, Fuzzer.Campaign.prepared) Hashtbl.t = Hashtbl.create 16

let prepare cfg (p : Workloads.Profile.t) =
  match Hashtbl.find_opt prepared p.Workloads.Profile.name with
  | Some prep -> prep
  | None ->
    let prep =
      Fuzzer.Campaign.prepare ~fuzz_execs:cfg.fuzz_execs ~rounds:cfg.rounds p
    in
    Hashtbl.replace prepared p.Workloads.Profile.name prep;
    prep

(* ------------------------------------------------------------------ *)
(* Figure 3: compilation cost breakdown                                *)
(* ------------------------------------------------------------------ *)

let fig3 _cfg =
  let rates = Buildsim.calibrate () in
  let rows =
    List.map
      (fun (p : Workloads.Profile.t) ->
        let source = Workloads.Generate.source p in
        let m = Minic.Lower.compile source in
        let b = Buildsim.model rates (Buildsim.stats_of_module source m) in
        (p.Workloads.Profile.name, b, Buildsim.savings_from_caching b))
      [ Workloads.Profile.find_exn "libxml2" ]
  in
  Support.Tab.print ~title:"Figure 3: compilation cost breakdown (modelled, seconds)"
    ~header:
      [ "program"; "autogen"; "configure"; "frontend"; "opt+instr"; "codegen";
        "link"; "total"; "cacheable" ]
    (List.map
       (fun (name, b, savings) ->
         [
           name;
           Printf.sprintf "%.2f" b.Buildsim.autogen;
           Printf.sprintf "%.2f" b.Buildsim.configure;
           Printf.sprintf "%.2f" b.Buildsim.frontend;
           Printf.sprintf "%.2f" b.Buildsim.optimize;
           Printf.sprintf "%.2f" b.Buildsim.codegen;
           Printf.sprintf "%.3f" b.Buildsim.link;
           Printf.sprintf "%.2f" (Buildsim.total b);
           Support.Tab.pct savings;
         ])
       rows);
  print_endline
    "  (paper, libxml2: autogen 10.83  configure 4.56  frontend 6.22  opt 15.28\n\
    \   codegen 2.75  link 0.06; Odin eliminates build system + frontend = ~45%)"


(* ------------------------------------------------------------------ *)
(* Figure 2: instrumentation-correctness experiment                    *)
(* ------------------------------------------------------------------ *)

let fig2 _cfg =
  print_endline
    "\n== Figure 2: does CmpLog survive optimization? (input-to-state solving) ==";
  print_endline
    "  Target: range-check roadblocks (the islower pattern) + byte-equality\n\
    \  roadblocks; the same solver drives both CmpLog strategies.";
  let rows =
    List.concat_map
      (fun seed ->
        let spec = Fuzzer.Fig2.make_spec seed in
        [ (spec, Fuzzer.Fig2.run_odin spec); (spec, Fuzzer.Fig2.run_static spec) ])
      [ 11; 23; 37 ]
  in
  Support.Tab.print
    ~title:"Roadblocks solved by input-to-state correspondence"
    ~header:[ "strategy"; "range checks"; "equality checks" ]
    (List.map
       (fun ((spec : Fuzzer.Fig2.spec), (r : Fuzzer.Fig2.result)) ->
         [
           r.Fuzzer.Fig2.strategy;
           Printf.sprintf "%d/%d" r.Fuzzer.Fig2.passed_range spec.Fuzzer.Fig2.n_range;
           Printf.sprintf "%d/%d" r.Fuzzer.Fig2.passed_magic spec.Fuzzer.Fig2.n_magic;
         ])
       rows);
  print_endline
    "  (paper Section 2.2: after the range fold the logged operand is x-L, not\n\
    \   a copy of the input — \"the solver algorithm cannot work anymore\";\n\
    \   instrument-first Odin logs the original bytes and solves everything)"

(* ------------------------------------------------------------------ *)
(* Figures 8 & 9: instrumented execution duration                      *)
(* ------------------------------------------------------------------ *)

type toolrow = {
  t_program : string;
  t_odincov : float;
  t_sancov : float;
  t_noprune : float;
  t_drcov : float;
  t_libinst : float;
  t_recompile_ms : float;  (** mean OdinCov recompilation during replay *)
  t_recompiles : int;
}

let tool_table : (string, toolrow) Hashtbl.t = Hashtbl.create 16

let measure_tools cfg (p : Workloads.Profile.t) =
  match Hashtbl.find_opt tool_table p.Workloads.Profile.name with
  | Some row -> row
  | None ->
    let prep = prepare cfg p in
    let base =
      float_of_int (Fuzzer.Campaign.replay_plain prep).Fuzzer.Campaign.r_total_cycles
    in
    let norm (r : Fuzzer.Campaign.replay) =
      float_of_int r.Fuzzer.Campaign.r_total_cycles /. base
    in
    let sancov = norm (Fuzzer.Campaign.replay_sancov prep) in
    let drcov = norm (Fuzzer.Campaign.replay_dbi Baselines.Dbi.Drcov prep) in
    let libinst = norm (Fuzzer.Campaign.replay_dbi Baselines.Dbi.Libinst prep) in
    let noprune =
      norm (Fuzzer.Campaign.replay_odincov ~prune:false prep).Fuzzer.Campaign.o_replay
    in
    let odin = Fuzzer.Campaign.replay_odincov ~prune:true prep in
    let odincov = norm odin.Fuzzer.Campaign.o_replay in
    let events = odin.Fuzzer.Campaign.o_events in
    (* skip the initial whole-build event: the paper's 82 ms average is
       over *re*compilations during the campaign *)
    let recompile_events = match events with _initial :: rest -> rest | [] -> [] in
    let recompile_ms =
      match recompile_events with
      | [] -> 0.
      | evs ->
        1000.
        *. Support.Stats.mean
             (List.map
                (fun (e : Odin.Session.recompile_event) ->
                  e.Odin.Session.ev_compile_time +. e.Odin.Session.ev_link_time)
                evs)
    in
    let row =
      {
        t_program = p.Workloads.Profile.name;
        t_odincov = odincov;
        t_sancov = sancov;
        t_noprune = noprune;
        t_drcov = drcov;
        t_libinst = libinst;
        t_recompile_ms = recompile_ms;
        t_recompiles = odin.Fuzzer.Campaign.o_recompiles;
      }
    in
    Hashtbl.replace tool_table p.Workloads.Profile.name row;
    row

let fig8 cfg =
  print_endline "\n== Section 5 tool table ==";
  print_endline
    "  OdinCov            Odin       dynamic  compiler\n\
    \  SanitizerCoverage  LLVM       static   compiler\n\
    \  DrCov              DynamoRIO  dynamic  binary\n\
    \  libInst            DynInst    static   binary";
  let rows = List.map (measure_tools cfg) cfg.programs in
  Support.Tab.print
    ~title:
      "Figure 8: normalized execution duration per program (1.00 = uninstrumented)"
    ~header:[ "program"; "OdinCov"; "SanCov"; "Odin-NoPrune"; "DrCov"; "libInst" ]
    (List.map
       (fun r ->
         [
           r.t_program;
           Printf.sprintf "%.3f" r.t_odincov;
           Printf.sprintf "%.3f" r.t_sancov;
           Printf.sprintf "%.3f" r.t_noprune;
           Printf.sprintf "%.3f" r.t_drcov;
           Printf.sprintf "%.2f" r.t_libinst;
         ])
       rows);
  Support.Tab.print_bars
    ~title:"Figure 8 (bars): OdinCov vs SanCov vs DrCov (normalized duration)"
    (List.concat_map
       (fun r ->
         [
           (r.t_program ^ "/odin", r.t_odincov);
           (r.t_program ^ "/sancov", r.t_sancov);
           (r.t_program ^ "/drcov", r.t_drcov);
         ])
       rows)

let fig9 cfg =
  let rows = List.map (measure_tools cfg) cfg.programs in
  let dist f = List.map f rows in
  let summary name xs =
    let s = Support.Stats.summarize xs in
    [
      name;
      Printf.sprintf "%.3f" s.Support.Stats.median;
      Printf.sprintf "%.3f" s.Support.Stats.mean;
      Printf.sprintf "%.3f" s.Support.Stats.p25;
      Printf.sprintf "%.3f" s.Support.Stats.p75;
      Printf.sprintf "%.3f" s.Support.Stats.min;
      Printf.sprintf "%.3f" s.Support.Stats.max;
    ]
  in
  Support.Tab.print
    ~title:"Figure 9: distribution of normalized execution durations (all programs)"
    ~header:[ "tool"; "median"; "mean"; "p25"; "p75"; "min"; "max" ]
    [
      summary "OdinCov" (dist (fun r -> r.t_odincov));
      summary "SanCov" (dist (fun r -> r.t_sancov));
      summary "OdinCov-NoPrune" (dist (fun r -> r.t_noprune));
      summary "DrCov" (dist (fun r -> r.t_drcov));
      summary "libInst" (dist (fun r -> r.t_libinst));
    ];
  let med f = Support.Stats.median (dist f) in
  let ov x = x -. 1. in
  let odin = med (fun r -> r.t_odincov) in
  let sancov = med (fun r -> r.t_sancov) in
  let drcov = med (fun r -> r.t_drcov) in
  let libinst = med (fun r -> r.t_libinst) in
  let noprune_mean = Support.Stats.mean (dist (fun r -> r.t_noprune)) in
  let sancov_mean = Support.Stats.mean (dist (fun r -> r.t_sancov)) in
  Printf.printf
    "\n\
     Headline (paper Section 5.1 | measured):\n\
    \  OdinCov median overhead     : paper  3.48%%   | measured %6.2f%%\n\
    \  SanCov median overhead      : paper 15%%      | measured %6.2f%%\n\
    \  DrCov median overhead       : paper 63%%      | measured %6.2f%%\n\
    \  libInst median overhead     : paper 1920%%    | measured %6.0f%%\n\
    \  SanCov/OdinCov overhead     : paper 3x       | measured %5.1fx\n\
    \  DrCov/OdinCov overhead      : paper 17x      | measured %5.1fx\n\
    \  libInst/OdinCov overhead    : paper 551x     | measured %5.0fx\n\
    \  NoPrune vs SanCov (mean)    : paper +23%%     | measured %+5.1f%%\n"
    (100. *. ov odin) (100. *. ov sancov) (100. *. ov drcov)
    (100. *. ov libinst)
    (ov sancov /. ov odin)
    (ov drcov /. ov odin)
    (ov libinst /. ov odin)
    (100. *. ((noprune_mean -. sancov_mean) /. sancov_mean));
  let recompiles =
    List.filter (fun r -> r.t_recompiles > 0) rows
    |> List.map (fun r -> r.t_recompile_ms)
  in
  if recompiles <> [] then
    Printf.printf
      "  Mean recompilation latency  : paper 82 ms   | measured %.2f ms (compiler & programs are smaller)\n"
      (Support.Stats.mean recompiles)

(* ------------------------------------------------------------------ *)
(* Table 1 + Figure 10: partition variants, uninstrumented             *)
(* ------------------------------------------------------------------ *)

type variant_row = {
  v_program : string;
  v_one : float;
  v_auto : float;
  v_max : float;
  v_frag_counts : int * int * int;
  v_build : (Odin.Partition.mode * Odin.Session.recompile_event) list;
}

let variant_table : (string, variant_row) Hashtbl.t = Hashtbl.create 16

let measure_variants cfg (p : Workloads.Profile.t) =
  match Hashtbl.find_opt variant_table p.Workloads.Profile.name with
  | Some row -> row
  | None ->
    let prep = prepare cfg p in
    let base =
      float_of_int (Fuzzer.Campaign.replay_plain prep).Fuzzer.Campaign.r_total_cycles
    in
    let run mode =
      let m = Ir.Clone.clone_module prep.Fuzzer.Campaign.modul in
      let session =
        Odin.Session.create ~mode ~keep:[ entry ]
          ~host:Workloads.Generate.host_functions m
      in
      let event = Odin.Session.build session in
      let exe = Odin.Session.executable session in
      let cycles =
        List.fold_left
          (fun acc input -> acc + (Fuzzer.Campaign.run_once exe input).Vm.cycles)
          0 prep.Fuzzer.Campaign.corpus
      in
      ( float_of_int cycles /. base,
        Odin.Partition.fragment_count session.Odin.Session.plan,
        event )
    in
    let one, _, ev_one = run Odin.Partition.One in
    let auto, nf_auto, ev_auto = run Odin.Partition.Auto in
    let max_, nf_max, ev_max = run Odin.Partition.Max in
    let row =
      {
        v_program = p.Workloads.Profile.name;
        v_one = one;
        v_auto = auto;
        v_max = max_;
        v_frag_counts = (1, nf_auto, nf_max);
        v_build =
          [
            (Odin.Partition.One, ev_one);
            (Odin.Partition.Auto, ev_auto);
            (Odin.Partition.Max, ev_max);
          ];
      }
    in
    Hashtbl.replace variant_table p.Workloads.Profile.name row;
    row

let fig10 cfg =
  print_endline "\n== Table 1: partition-scheme variants ==";
  print_endline
    "  Odin-OnePartition : 1 fragment     (better optimization)\n\
    \  Odin              : survey-driven  (the paper's scheme)\n\
    \  Odin-MaxPartition : max possible   (faster recompilation)";
  let rows = List.map (measure_variants cfg) cfg.programs in
  Support.Tab.print
    ~title:
      "Figure 10: normalized execution duration of NON-instrumented partition variants"
    ~header:
      [ "program"; "OnePartition"; "Odin"; "MaxPartition"; "frags(one/odin/max)" ]
    (List.map
       (fun r ->
         let a, b, c = r.v_frag_counts in
         [
           r.v_program;
           Printf.sprintf "%.3f" r.v_one;
           Printf.sprintf "%.3f" r.v_auto;
           Printf.sprintf "%.3f" r.v_max;
           Printf.sprintf "%d/%d/%d" a b c;
         ])
       rows);
  let mean f = Support.Stats.mean (List.map f rows) in
  Printf.printf
    "\n\
     Average overhead vs baseline (paper | measured):\n\
    \  Odin-OnePartition : paper  1.12%% | measured %6.2f%%\n\
    \  Odin              : paper  1.43%% | measured %6.2f%%\n\
    \  Odin-MaxPartition : paper 55.77%% | measured %6.2f%%\n\
    \  Odin vs One       : paper  0.31%% | measured %6.2f%%\n"
    (100. *. (mean (fun r -> r.v_one) -. 1.))
    (100. *. (mean (fun r -> r.v_auto) -. 1.))
    (100. *. (mean (fun r -> r.v_max) -. 1.))
    (100. *. (mean (fun r -> r.v_auto) -. mean (fun r -> r.v_one)))

(* ------------------------------------------------------------------ *)
(* Figures 11 & 12: recompilation cost                                 *)
(* ------------------------------------------------------------------ *)

let per_fragment_times (ev : Odin.Session.recompile_event) =
  List.map snd ev.Odin.Session.ev_per_fragment

let fig11 cfg =
  let rows = List.map (measure_variants cfg) cfg.programs in
  Support.Tab.print
    ~title:
      "Figure 11: average fragment recompilation time, normalized to recompiling\n\
       the whole program (Odin-OnePartition)"
    ~header:[ "program"; "OnePartition"; "Odin"; "MaxPartition" ]
    (List.map
       (fun r ->
         let time_of mode =
           let ev = List.assoc mode r.v_build in
           Support.Stats.mean (per_fragment_times ev)
         in
         let whole =
           let ev = List.assoc Odin.Partition.One r.v_build in
           max 1e-9 ev.Odin.Session.ev_compile_time
         in
         [
           r.v_program;
           "100.00%";
           Support.Tab.pct (time_of Odin.Partition.Auto /. whole);
           Support.Tab.pct (time_of Odin.Partition.Max /. whole);
         ])
       rows);
  let avg mode =
    Support.Stats.mean
      (List.map
         (fun r ->
           let ev = List.assoc mode r.v_build in
           let whole =
             max 1e-9
               (List.assoc Odin.Partition.One r.v_build).Odin.Session.ev_compile_time
           in
           Support.Stats.mean (per_fragment_times ev) /. whole)
         rows)
  in
  let abs_avg mode =
    Support.Stats.mean
      (List.concat_map
         (fun r -> per_fragment_times (List.assoc mode r.v_build))
         rows)
  in
  Printf.printf
    "\n\
     Average per-fragment recompilation vs whole-program (paper | measured):\n\
    \  Odin saves                 : paper 97.91%% | measured %5.2f%%\n\
    \  Odin/Max normalized ratio  : paper ~6.5x  | measured %5.1fx\n\
    \  Odin/Max absolute ms ratio : paper ~15.1x | measured %5.1fx (30.67 ms vs 2.03 ms)\n"
    (100. *. (1. -. avg Odin.Partition.Auto))
    (avg Odin.Partition.Auto /. avg Odin.Partition.Max)
    (abs_avg Odin.Partition.Auto /. abs_avg Odin.Partition.Max)

let fig12 cfg =
  let rows = List.map (measure_variants cfg) cfg.programs in
  Support.Tab.print
    ~title:
      "Figure 12: worst-case fragment recompilation + link, absolute (milliseconds)"
    ~header:[ "program"; "One compile"; "Odin compile"; "Max compile"; "link" ]
    (List.map
       (fun r ->
         let worst mode =
           let ev = List.assoc mode r.v_build in
           1000. *. List.fold_left max 0. (per_fragment_times ev)
         in
         let link =
           let ev = List.assoc Odin.Partition.Auto r.v_build in
           1000. *. ev.Odin.Session.ev_link_time
         in
         [
           r.v_program;
           Printf.sprintf "%.1f" (worst Odin.Partition.One);
           Printf.sprintf "%.1f" (worst Odin.Partition.Auto);
           Printf.sprintf "%.1f" (worst Odin.Partition.Max);
           Printf.sprintf "%.2f" link;
         ])
       rows);
  print_endline
    "  (paper: median worst-case 542 ms, sqlite worst ~2 s, link avg 49 ms —\n\
    \   absolute values here scale down with compiler/program size; the shape\n\
    \   One >= Odin >= Max and sqlite-as-worst-case is the experiment)"


(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5)                                     *)
(* ------------------------------------------------------------------ *)

let ablation cfg =
  print_endline "\n== Ablations ==";
  (* 1. back-propagation of Algorithm 2: coverage survival after rebuild *)
  let p = List.hd cfg.programs in
  let prep = prepare cfg p in
  let survival ~backprop =
    let m = Ir.Clone.clone_module prep.Fuzzer.Campaign.modul in
    let session =
      Odin.Session.create ~mode:Odin.Partition.One ~keep:[ entry ]
        ~runtime_globals:[ Odin.Cov.runtime_global m ]
        ~host:Workloads.Generate.host_functions m
    in
    let cov = Odin.Cov.setup session in
    ignore (Odin.Session.build session);
    (match prep.Fuzzer.Campaign.corpus with
    | first :: _ ->
      let vm = Fuzzer.Campaign.run_once (Odin.Session.executable session) first in
      ignore (Odin.Cov.harvest cov vm);
      ignore (Odin.Cov.prune_fired cov);
      ignore (Odin.Session.refresh ~backprop session)
    | [] -> ());
    (* how many of the remaining (not yet covered) probes still produce
       coverage when new paths execute? *)
    let alive = ref 0 in
    List.iter
      (fun input ->
        let vm = Fuzzer.Campaign.run_once (Odin.Session.executable session) input in
        alive := !alive + List.length (Odin.Cov.harvest cov vm))
      prep.Fuzzer.Campaign.corpus;
    (!alive, Instr.Manager.count session.Odin.Session.manager)
  in
  let alive_bp, remaining_bp = survival ~backprop:true in
  let alive_nobp, remaining_nobp = survival ~backprop:false in
  Printf.printf
    "Back-propagation (Algorithm 2 lines 13-17), program %s:\n\
    \  with back-propagation    : %d remaining probes, %d fired on new paths\n\
    \  without back-propagation : %d remaining probes, %d fired (coverage lost)\n"
    p.Workloads.Profile.name remaining_bp alive_bp remaining_nobp alive_nobp;
  (* 2. copy-on-use cloning vs plain import *)
  let variant ~copy_on_use =
    let m = Ir.Clone.clone_module prep.Fuzzer.Campaign.modul in
    let session =
      Odin.Session.create ~copy_on_use ~keep:[ entry ]
        ~host:Workloads.Generate.host_functions m
    in
    ignore (Odin.Session.build session);
    let exe = Odin.Session.executable session in
    ( List.fold_left
        (fun acc input -> acc + (Fuzzer.Campaign.run_once exe input).Vm.cycles)
        0 prep.Fuzzer.Campaign.corpus,
      Odin.Partition.fragment_count session.Odin.Session.plan )
  in
  let cycles_cou, frags_cou = variant ~copy_on_use:true in
  let cycles_nocou, frags_nocou = variant ~copy_on_use:false in
  Printf.printf
    "Copy-on-use cloning, program %s:\n\
    \  with cloning    : %d cycles, %d fragments\n\
    \  import instead  : %d cycles, %d fragments (%+.2f%% duration)\n"
    p.Workloads.Profile.name cycles_cou frags_cou cycles_nocou frags_nocou
    (100. *. (float_of_int cycles_nocou /. float_of_int cycles_cou -. 1.))

(* ------------------------------------------------------------------ *)
(* Snapshot sections: one combinator prints and publishes each         *)
(* ------------------------------------------------------------------ *)

(* The sections below publish BENCH_<section>.json snapshots that CI
   gates against bench/baseline/. They carry deterministic counters
   (Exact), modelled costs (Cost) and context (Info) only: wall-clock
   claims about Odin's own speed are bench/e2e's, which judges paired
   runs against BENCHMARK.json's bounds. *)

(* One value of a section: a table column ([col], or the label of a
   section-level line), a snapshot metric ([metric], named relative to
   its row), or both. [ok = false] is an invariant that failed. *)
type cell = { col : string option; text : string; metric : Snap.metric option; ok : bool }

let col name text = { col = Some name; text; metric = None; ok = true }

(* an integer metric, shown under [col] when given *)
let count ?col ?text ?unit_ ?(cls = Snap.Exact) name n =
  {
    col;
    text = Option.value text ~default:(string_of_int n);
    metric = Some (Snap.metric ?unit_ ~cls name (float_of_int n));
    ok = true;
  }

let real ?col ~fmt ?unit_ ~cls name v =
  { col; text = Printf.sprintf fmt v; metric = Some (Snap.metric ?unit_ ~cls name v); ok = true }

(* an invariant, published as an Exact 1/0 when [name] is given *)
let check ?name label ok =
  {
    col = Some label;
    text = (if ok then "yes" else "NO — BUG");
    metric =
      Option.map (fun n -> Snap.metric ~cls:Snap.Exact n (if ok then 1. else 0.)) name;
    ok;
  }

(* Print a section's tables — each a title and rows of cells, one
   column per cell with a [col] — then its section-level [cells] as
   "label: text" lines; write BENCH_<section>.json from every metric
   cell, named with its row's prefix (a row without one publishes
   none); then exit 1 if any invariant read false. The snapshot is
   written atomically, so a killed run never leaves a truncated one. *)
let publish ~section ?(tables = []) cells =
  List.iter
    (fun (title, rows) ->
      match rows with
      | [] -> ()
      | (_, first) :: _ ->
        let texts cs = List.filter_map (fun c -> Option.map (fun _ -> c.text) c.col) cs in
        Support.Tab.print ~title
          ~header:(List.filter_map (fun c -> c.col) first)
          (List.map (fun (_, cs) -> texts cs) rows))
    tables;
  List.iter (fun c -> Option.iter (fun l -> Printf.printf "  %s: %s\n" l c.text) c.col) cells;
  let rows = List.concat_map snd tables @ [ (Some "", cells) ] in
  let metrics =
    List.concat_map
      (fun (prefix, cs) ->
        match prefix with
        | None -> []
        | Some p ->
          List.filter_map
            (fun c -> Option.map (fun m -> { m with Snap.m_name = p ^ m.Snap.m_name }) c.metric)
            cs)
      rows
  in
  let meta =
    Snap.default_meta
      ~jobs:(Support.Pool.default_size ())
      ~extra:[ ("mode", (if !quick_mode then "quick" else "full")) ]
      ()
  in
  let path = Snap.write ~dir:!out_dir (Snap.create ~section ~meta metrics) in
  Printf.printf "  snapshot -> %s\n" path;
  match List.concat_map (fun (_, cs) -> List.filter (fun c -> not c.ok) cs) rows with
  | [] -> ()
  | failed ->
    Printf.eprintf "bench %s: invariant failed: %s\n" section
      (String.concat "; " (List.filter_map (fun c -> c.col) failed));
    exit 1

(* sqlite scaled up to 645 fragments under Max partitioning, where the
   full link dominates refresh time as it would for a real target with
   thousands of symbols; bench/e2e's sqlite-xl *)
let sqlite_xl =
  {
    (Workloads.Profile.find_exn "sqlite") with
    Workloads.Profile.name = "sqlite-xl";
    n_helpers = 400;
    n_tiny = 200;
    n_parsers = 24;
  }

(* A Max-partition coverage session over [m], built. *)
let cov_session ?pool ?incremental_link ?incremental_sched ?tiered m =
  let session =
    Odin.Session.create ~mode:Odin.Partition.Max ~keep:[ entry ]
      ~runtime_globals:[ Odin.Cov.runtime_global m ]
      ~host:Workloads.Generate.host_functions ?pool ?incremental_link
      ?incremental_sched ?tiered m
  in
  ignore (Odin.Cov.setup session);
  ignore (Odin.Session.build session);
  session

(* digest of every fragment object of a session *)
let fingerprint session =
  Hashtbl.fold
    (fun fid obj acc -> (fid, Digest.string (Marshal.to_string obj [])) :: acc)
    session.Odin.Session.cache []
  |> List.sort compare

(* The steady state of a long session's edit loop: one probe whose on
   and off objects are both already cached. *)
let warm_probe session =
  let mgr = session.Odin.Session.manager in
  let found = ref None in
  Instr.Manager.iter (fun pr -> if !found = None then found := Some pr) mgr;
  let probe = Option.get !found in
  List.iter
    (fun on ->
      Instr.Manager.set_enabled mgr probe on;
      ignore (Odin.Session.refresh session))
    [ false; true ];
  probe

(* Toggle [probe] [iters] times, one refresh each, passing each
   refresh's event to [f]; returns the image digest after every toggle
   (the bit-identity bar against a reference session). *)
let toggle_loop session probe ~iters f =
  List.init iters (fun i ->
      Instr.Manager.set_enabled session.Odin.Session.manager probe (i mod 2 = 1);
      f (Option.get (Odin.Session.refresh session));
      let img =
        List.sort compare
          (List.map
             (fun (b, by) -> (b, Bytes.to_string by))
             (Odin.Session.executable session).Link.Linker.image)
      in
      Digest.string (Marshal.to_string img []))

(* ------------------------------------------------------------------ *)
(* Telemetry: per-stage breakdown of a full campaign                   *)
(* ------------------------------------------------------------------ *)

(** Where does one campaign's work go? Runs prepare + an OdinCov replay
    for one workload with a telemetry recorder attached and prints the
    per-stage aggregation (the -ftime-report analogue of the figures
    above, which only show per-event sums). *)
let timereport cfg =
  print_endline "\n== Telemetry: per-stage time breakdown (one campaign) ==";
  let p = List.hd cfg.programs in
  let r = Telemetry.Recorder.create () in
  let prep =
    Fuzzer.Campaign.prepare ~telemetry:r ~fuzz_execs:cfg.fuzz_execs
      ~rounds:cfg.rounds p
  in
  let odin = Fuzzer.Campaign.replay_odincov ~telemetry:r prep in
  Telemetry.Report.print
    ~title:(Printf.sprintf "campaign %s" p.Workloads.Profile.name)
    r;
  (* the deterministic session/link/campaign counters gate as Exact;
     shard waits are contention-dependent; the O(changed)-refresh
     counters and the modelled compile cost per tier gate as Cost —
     they measure scheduler/cache/compiler work, which is expected to
     drift as those paths evolve, within tolerance *)
  let agg : (string, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun c ->
      let name = Telemetry.Metrics.counter_name c in
      if
        String.starts_with ~prefix:"session." name
        || String.starts_with ~prefix:"link." name
        || String.starts_with ~prefix:"campaign." name
      then
        Hashtbl.replace agg name
          (Telemetry.Metrics.value c
          + Option.value ~default:0 (Hashtbl.find_opt agg name)))
    (Telemetry.Metrics.counters r.Telemetry.Recorder.metrics);
  let counters =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg []
    |> List.sort compare
    |> List.map (fun (name, v) ->
           let cls =
             if name = "session.cache_shard_waits" then Snap.Info
             else if
               List.mem name
                 [
                   "session.schedule_visited";
                   "session.opt_memo_hits";
                   "link.slab_compactions";
                   "session.tier0_cost";
                   "session.tier1_cost";
                 ]
             then Snap.Cost
             else Snap.Exact
           in
           count ~cls ("counter." ^ name) v)
  in
  publish ~section:"timereport"
    (count ~col:"recompile events" "recompile_events"
       (List.length odin.Fuzzer.Campaign.o_events)
    :: counters)

(* ------------------------------------------------------------------ *)
(* Parallel recompilation: domain pool + content-addressed cache       *)
(* ------------------------------------------------------------------ *)

(** Cold vs cache-warm full multi-fragment refresh, per pool size. Max
    partition on the last (largest) workload gives one fragment per
    function; toggling every coverage probe off schedules all of them
    (a cold recompile), toggling back on reproduces the initial build's
    instrumented IR byte-for-byte, so every fragment is an object-cache
    hit and the refresh is relink-only. Every pool size must produce
    bit-identical objects. *)
let parallel cfg =
  print_endline "\n== Parallel recompilation (domain pool + object cache) ==";
  let p = List.nth cfg.programs (List.length cfg.programs - 1) in
  let observe size =
    let pool =
      if size = 1 then Support.Pool.serial else Support.Pool.create ~size ()
    in
    Fun.protect ~finally:(fun () -> Support.Pool.shutdown pool) @@ fun () ->
    let session = cov_session ~pool (Workloads.Generate.compile p) in
    let refresh enabled =
      Instr.Manager.iter
        (fun pr ->
          Instr.Manager.set_enabled session.Odin.Session.manager pr enabled)
        session.Odin.Session.manager;
      Option.get (Odin.Session.refresh session)
    in
    let cold = refresh false in
    let warm = refresh true in
    (cold, warm, fingerprint session)
  in
  let results =
    List.map
      (fun s -> (s, observe s))
      (List.sort_uniq compare [ 1; 2; Support.Pool.default_size () ])
  in
  let fps = List.map (fun (_, (_, _, fp)) -> fp) results in
  let missed (ev : Odin.Session.recompile_event) =
    List.length ev.Odin.Session.ev_fragments - ev.Odin.Session.ev_cache_hits
  in
  publish ~section:"parallel"
    ~tables:
      [
        ( Printf.sprintf "full refresh, program %s (Max partition)"
            p.Workloads.Profile.name,
          List.map
            (fun (size, (cold, warm, _)) ->
              (* only the fixed pool sizes (1, 2) publish: jobsN metric
                 names must not depend on this host's core count or
                 cross-machine diffs would report missing metrics *)
              ( (if size <= 2 then Some (Printf.sprintf "jobs%d." size) else None),
                [
                  col "jobs" (string_of_int size);
                  count ~col:"cold compiled" "compiled_cold" (missed cold);
                  count ~col:"warm hits"
                    ~text:
                      (Printf.sprintf "%d/%d" warm.Odin.Session.ev_cache_hits
                         (List.length warm.Odin.Session.ev_fragments))
                    "warm_cache_hits" warm.Odin.Session.ev_cache_hits;
                  count ~col:"warm recompiled" "warm_recompiled" (missed warm);
                ] ))
            results );
      ]
    [
      check ~name:"objects_bit_identical" "bit-identical objects across pool sizes"
        (List.for_all (fun fp -> fp = List.hd fps) fps);
      count ~col:"default pool size" ~cls:Snap.Info "default_pool_size"
        (Support.Pool.default_size ());
    ]

(* ------------------------------------------------------------------ *)
(* Incremental relinking: persistent link state + patching             *)
(* ------------------------------------------------------------------ *)

(** Full vs incremental link cost of the steady-state edit loop: one
    probe toggled per refresh, so exactly one fragment changes and the
    incremental linker re-places one slab and patches its relocations
    instead of re-linking every object. Two sessions run the same
    toggle sequence — one with [incremental_link:false], one with
    [true] — and the executable images are compared after every refresh
    (the bit-identity bar, checked live). *)
let relink _cfg =
  print_endline "\n== Incremental relinking (persistent link state) ==";
  let iters = 100 in
  let observe (p : Workloads.Profile.t) incremental =
    let session =
      cov_session ~incremental_link:incremental (Workloads.Generate.compile p)
    in
    let probe = warm_probe session in
    let cost = ref 0 in
    let images =
      toggle_loop session probe ~iters (fun _ ->
          cost :=
            !cost
            + (Link.Incremental.last session.Odin.Session.linker).Link.Incremental.ls_cost)
    in
    ( !cost / iters,
      Link.Incremental.stats session.Odin.Session.linker,
      Array.length session.Odin.Session.plan.Odin.Partition.fragments,
      images )
  in
  let row (p : Workloads.Profile.t) =
    let cost_full, _, frags, images_full = observe p false in
    let cost_inc, (st : Link.Incremental.stats), _, images_inc = observe p true in
    ( Some (p.Workloads.Profile.name ^ "."),
      [
        col "program" p.Workloads.Profile.name;
        count ~col:"frags" ~cls:Snap.Info "fragments" frags;
        count ~col:"full cost" ~unit_:"cost" ~cls:Snap.Cost "full_cost" cost_full;
        count ~col:"incr cost" ~unit_:"cost" ~cls:Snap.Cost "incr_cost" cost_inc;
        col "cost x"
          (Printf.sprintf "%.1f" (float_of_int cost_full /. float_of_int (max 1 cost_inc)));
        col "patched s/r"
          (Printf.sprintf "%d/%d"
             (st.Link.Incremental.st_symbols_patched / max 1 st.Link.Incremental.st_incremental)
             (st.Link.Incremental.st_relocs_patched / max 1 st.Link.Incremental.st_incremental));
        count "symbols_patched" st.Link.Incremental.st_symbols_patched;
        count "relocs_patched" st.Link.Incremental.st_relocs_patched;
        count ~col:"fallbacks" "fallbacks" st.Link.Incremental.st_fallbacks;
        check ~name:"images_identical" "identical" (images_full = images_inc);
      ] )
  in
  publish ~section:"relink"
    ~tables:
      [
        ( Printf.sprintf "single-probe toggle refresh, %d iterations (Max partition)"
            iters,
          List.map row
            [ Workloads.Profile.find_exn "json"; Workloads.Profile.find_exn "sqlite"; sqlite_xl ]
        );
      ]
    []

(* ------------------------------------------------------------------ *)
(* Two-tier compilation: baseline backend vs optimizing pipeline       *)
(* ------------------------------------------------------------------ *)

(** Tier-0 exists to make fresh fragments cheap: the single-pass
    baseline backend must produce a fragment for a small fraction of
    the optimizing pipeline's modelled cost while staying semantically
    equivalent, and a fully promoted tiered session must converge on
    the untiered session's objects and traces exactly. Both bars are
    invariants: the bench fails rather than accept a broken tier.
    sqlite-xl runs with a skewed hot/cold cycle distribution
    ([hot_skew]) so a realistic minority of fragments dominates the
    profile promotions are decided from. *)
let tier _cfg =
  print_endline "\n== Tiered compilation (tier-0 baseline vs optimizing tier) ==";
  let xlarge = { sqlite_xl with Workloads.Profile.hot_skew = 8 } in
  let m_src = Workloads.Generate.source xlarge in
  let inputs = Workloads.Generate.seed_inputs ~count:4 xlarge in
  let run_target ?profile session input =
    let vm = Vm.create (Odin.Session.executable session) in
    let prof = if profile = Some true then Some (Vm.enable_profile vm) else None in
    List.iter
      (fun n -> Vm.register_host vm n (fun _ -> 0L))
      Workloads.Generate.host_functions;
    let addr = Vm.write_buffer vm input in
    let ret = Vm.call vm entry [ addr; Int64.of_int (String.length input) ] in
    ((ret, vm.Vm.cycles), prof)
  in
  let trace session = List.map (fun i -> fst (run_target session i)) inputs in
  (* initial build, both tiers *)
  let u_sess = cov_session ~tiered:false (Minic.Lower.compile m_src) in
  let t_sess = cov_session ~tiered:true (Minic.Lower.compile m_src) in
  let u_st = Odin.Session.tier_stats u_sess in
  let t_st = Odin.Session.tier_stats t_sess in
  let per0 =
    float_of_int t_st.Odin.Session.ts_tier0_cost
    /. float_of_int (max 1 t_st.Odin.Session.ts_tier0_compiles)
  in
  let per1 =
    float_of_int u_st.Odin.Session.ts_tier1_cost
    /. float_of_int (max 1 u_st.Odin.Session.ts_tier1_compiles)
  in
  let cost_ratio = per1 /. max 1. per0 in
  (* returns must agree while the whole program is still at tier 0 *)
  let tier0_returns_ok =
    List.map fst (trace t_sess) = List.map fst (trace u_sess)
  in
  (* profile a live run on the tier-0 image and promote the hot set *)
  let (_, prof) = run_target ~profile:true t_sess (List.hd inputs) in
  let fn_cycles = Vm.profile_top (Option.get prof) in
  let hot = Odin.Session.promote_hot ~threshold:0.02 t_sess fn_cycles in
  ignore (Odin.Session.refresh t_sess);
  (* promote everything that remains and demand exact convergence *)
  Odin.Session.promote t_sess
    (List.sort compare (List.map fst (Odin.Session.fragment_sizes t_sess)));
  ignore (Odin.Session.refresh t_sess);
  let objects_identical = fingerprint t_sess = fingerprint u_sess in
  let traces_identical = trace t_sess = trace u_sess in
  let final = Odin.Session.tier_stats t_sess in
  publish ~section:"tier"
    ~tables:
      [
        ( "tier-0 baseline vs optimizing tier (sqlite-xl, Max partition)",
          [
            ( Some "",
              [
                col "metric" "fresh compiles (initial build)";
                count ~col:"tier 0" "tier0_compiles" t_st.Odin.Session.ts_tier0_compiles;
                count ~col:"tier 1" "tier1_compiles" u_st.Odin.Session.ts_tier1_compiles;
              ] );
            ( Some "",
              [
                col "metric" "modelled cost / fragment";
                real ~col:"tier 0" ~fmt:"%.0f" ~unit_:"cost" ~cls:Snap.Cost
                  "tier0_cost_per_fragment" per0;
                real ~col:"tier 1" ~fmt:"%.0f" ~unit_:"cost" ~cls:Snap.Cost
                  "tier1_cost_per_fragment" per1;
              ] );
          ] );
      ]
    [
      real ~col:"cost separation (tier 1 / tier 0 per fragment)" ~fmt:"%.1fx"
        ~unit_:"ratio" ~cls:Snap.Info "cost_ratio" cost_ratio;
      check "cost separation at least 5x" (cost_ratio >= 5.0);
      check "tier-0 returns match the optimizing tier" tier0_returns_ok;
      count ~col:"hot set promoted from a live profile (threshold 2%)" "hot_promoted"
        (List.length hot);
      count ~col:"promotions" "promotions_total" final.Odin.Session.ts_promotions;
      check ~name:"objects_identical" "fully promoted: objects identical"
        objects_identical;
      check ~name:"traces_identical" "fully promoted: traces identical"
        traces_identical;
    ]

(* ------------------------------------------------------------------ *)
(* O(changed) refresh scheduling: dirty-set indexes + object cache     *)
(* ------------------------------------------------------------------ *)

(** Cost of *deciding* what to recompile, isolated from the work of
    recompiling it: one probe toggled per refresh on a 42-fragment and a
    ~10k-fragment program. The incremental scheduler answers from the
    dirty-set and the persistent symbol->fragment indexes (O(changed));
    the full walk re-examines every fragment and filters every probe
    (O(program)). Two sessions per program, one created with
    [incremental_sched:false], run the same toggle sequence and the
    executable images are compared after every refresh — the
    bit-identity bar, checked live. The modelled refresh cost combines
    the deterministic schedule, recompile and link costs:
    2*visited + 5*scheduled + 1000*recompiled + link cost. *)
let schedule_bench _cfg =
  print_endline
    "\n== O(changed) refresh scheduling (incremental scheduler + object \
     cache) ==";
  (* the identity pass digests the whole image per toggle — O(program)
     measurement overhead on the ~10k-fragment program, so quick (CI)
     mode runs fewer toggles; the refresh path under test is unaffected *)
  let iters = if !quick_mode then 40 else 100 in
  let counter session name =
    Telemetry.Metrics.value
      (Telemetry.Metrics.counter
         session.Odin.Session.telemetry.Telemetry.Recorder.metrics name)
  in
  let run (p : Workloads.Profile.t) incremental =
    let session =
      cov_session ~incremental_sched:incremental (Workloads.Generate.compile p)
    in
    let probe = warm_probe session in
    let visited0 = counter session "session.schedule_visited" in
    let memo0 = counter session "session.opt_memo_hits" in
    let scheduled = ref 0 and recompiled = ref 0 and link_cost = ref 0 in
    let images =
      toggle_loop session probe ~iters (fun ev ->
          let n = List.length ev.Odin.Session.ev_fragments in
          scheduled := !scheduled + n;
          recompiled := !recompiled + n - ev.Odin.Session.ev_cache_hits;
          link_cost :=
            !link_cost
            + (Link.Incremental.last session.Odin.Session.linker).Link.Incremental.ls_cost)
    in
    let visited = counter session "session.schedule_visited" - visited0 in
    ( Array.length session.Odin.Session.plan.Odin.Partition.fragments,
      visited / iters,
      counter session "session.opt_memo_hits" - memo0,
      !recompiled,
      ((2 * visited) + (5 * !scheduled) + (1000 * !recompiled) + !link_cost) / iters,
      images )
  in
  let observe (p : Workloads.Profile.t) =
    let frags, visited_i, memo_i, recompiled_i, cost_i, images_i = run p true in
    let _, visited_f, _, recompiled_f, cost_f, images_f = run p false in
    ( cost_i,
      ( Some (p.Workloads.Profile.name ^ "."),
        [
          col "program" p.Workloads.Profile.name;
          count ~col:"frags" ~cls:Snap.Info "fragments" frags;
          count ~col:"visited full" "visited_full" visited_f;
          count ~col:"visited incr" "visited_incr" visited_i;
          count ~col:"memo hits" "memo_hits" memo_i;
          count "recompiled_full" recompiled_f;
          count "recompiled_incr" recompiled_i;
          count ~col:"cost full" ~unit_:"cost" ~cls:Snap.Cost "modelled_full" cost_f;
          count ~col:"cost incr" ~unit_:"cost" ~cls:Snap.Cost "modelled_incr" cost_i;
          check ~name:"images_identical" "identical" (images_i = images_f);
        ] ) )
  in
  let cost_s, small = observe (Workloads.Profile.find_exn "sqlite") in
  let cost_x, xxl = observe Workloads.Profile.sqlite_xxl in
  publish ~section:"schedule"
    ~tables:
      [
        ( Printf.sprintf "single-probe toggle refresh, %d iterations (Max partition)"
            iters,
          [ small; xxl ] );
      ]
    [
      (* the modelled one-toggle refresh cost must not grow with
         program size *)
      real ~col:"modelled refresh cost, sqlite-xxl / sqlite (incremental)"
        ~fmt:"%.2fx" ~unit_:"ratio" ~cls:Snap.Info "xxl_vs_small_cost_ratio"
        (float_of_int cost_x /. float_of_int (max 1 cost_s));
    ]

(* ------------------------------------------------------------------ *)
(* Fuzzing farm: multi-worker scaling + invariance                     *)
(* ------------------------------------------------------------------ *)

(* the logical outcome of a farm campaign, as farm and farm_proc publish
   it *)
let farm_cells st =
  [
    count ~col:"execs" "execs" st.Farm.fs_execs;
    count ~unit_:"cycles" "total_cycles" st.Farm.fs_total_cycles;
    count ~col:"coverage"
      ~text:
        (Printf.sprintf "%d/%d" (List.length st.Farm.fs_coverage) st.Farm.fs_total_probes)
      "coverage" (List.length st.Farm.fs_coverage);
    count ~col:"pruned" "pruned" (List.length st.Farm.fs_pruned);
    count ~col:"exchanged" "exchanged" st.Farm.fs_exchanged;
  ]

let farm cfg =
  print_endline "\n== Fuzzing farm (multi-worker campaign orchestrator) ==";
  let p = Workloads.Profile.find_exn "libpng" in
  let seeds = Workloads.Generate.seed_inputs ~count:2 p in
  let execs = cfg.fuzz_execs * 2 in
  let observe workers =
    let pool = Support.Pool.create ~size:(max 2 workers) () in
    Fun.protect ~finally:(fun () -> Support.Pool.shutdown pool) @@ fun () ->
    Farm.run ~pool ~entry ~seeds
      {
        Farm.default_config with
        Farm.fc_workers = workers;
        fc_execs = execs;
        fc_sync_interval = 50;
      }
      (Workloads.Generate.compile p)
  in
  let results = List.map (fun w -> (w, observe w)) [ 1; 2; 4 ] in
  (* worker count must not change the logical outcome *)
  let sigs =
    List.map
      (fun (_, st) -> (st.Farm.fs_coverage, st.Farm.fs_pruned, st.Farm.fs_corpus))
      results
  in
  publish ~section:"farm"
    ~tables:
      [
        ( Printf.sprintf "farm scaling, program %s (%d execs, sync every 50)"
            p.Workloads.Profile.name execs,
          List.map
            (fun (w, st) ->
              ( Some (Printf.sprintf "w%d." w),
                (col "workers" (string_of_int w) :: farm_cells st)
                @ [
                  col "dedup %" (Printf.sprintf "%.0f" (Farm.dedup_rate st));
                  count ~col:"cross hits" ~cls:Snap.Cost "cross_hits" st.Farm.fs_cross_hits;
                  count ~col:"recompiles" "recompiles" st.Farm.fs_recompiles;
                  count ~unit_:"cycles" "probe_cycles"
                    (List.fold_left
                       (fun a pc -> a + pc.Farm.pc_cycles)
                       0 st.Farm.fs_probe_cost);
                ] ))
            results );
      ]
    [
      check ~name:"invariant_across_workers"
        "identical (coverage, pruned, corpus) across worker counts"
        (List.for_all (fun s -> s = List.hd sigs) sigs);
    ]

(* ------------------------------------------------------------------ *)
(* Process farm: supervised workers, kill/restart, checkpoint/resume   *)
(* ------------------------------------------------------------------ *)

let farm_proc cfg =
  print_endline "\n== Process farm (supervised workers, checkpoint/resume) ==";
  let p = Workloads.Profile.find_exn "libpng" in
  let seeds = Workloads.Generate.seed_inputs ~count:2 p in
  let execs = cfg.fuzz_execs * 2 in
  let fcfg workers =
    {
      Farm.default_config with
      Farm.fc_workers = workers;
      fc_execs = execs;
      fc_sync_interval = 50;
    }
  in
  (* this binary doubles as the worker executable (see the dispatch at
     the entry point) *)
  let worker_argv = [| Sys.executable_name; "fuzz-worker" |] in
  (* the in-process reference: domains farm at the same config *)
  let dom =
    let pool = Support.Pool.create ~size:2 () in
    Fun.protect ~finally:(fun () -> Support.Pool.shutdown pool) @@ fun () ->
    Farm.run ~pool ~entry ~seeds (fcfg 2) (Workloads.Generate.compile p)
  in
  let results =
    List.map
      (fun w ->
        ( w,
          Farm.Proc.run ~worker_argv ~entry ~seeds (fcfg w)
            (Workloads.Generate.compile p) ))
      [ 1; 2; 4 ]
  in
  (* checkpointed run, then resume the tail from a mid-campaign
     checkpoint (the interrupted budget stops on a barrier so the
     resumed run shares the uninterrupted barrier schedule) *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "odin-bench-proc"
  in
  Support.Objstore.rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> Support.Objstore.rm_rf dir) @@ fun () ->
  let r = Telemetry.Recorder.create () in
  let ckpt_st =
    Farm.Proc.run ~telemetry:r ~worker_argv
      ~checkpoint_path:(Filename.concat dir "ck")
      ~entry ~seeds (fcfg 2)
      (Workloads.Generate.compile p)
  in
  let checkpoints =
    List.fold_left
      (fun acc c ->
        if Telemetry.Metrics.counter_name c = "farm.checkpoints" then
          acc + Telemetry.Metrics.value c
        else acc)
      0
      (Telemetry.Metrics.counters r.Telemetry.Recorder.metrics)
  in
  let partial = execs - (let rem = execs mod 50 in if rem = 0 then 50 else rem) in
  let partial_ck = Filename.concat dir "ck-partial" in
  let _ =
    Farm.Proc.run ~worker_argv ~checkpoint_path:partial_ck ~entry ~seeds
      { (fcfg 2) with Farm.fc_execs = partial }
      (Workloads.Generate.compile p)
  in
  let ck = Farm.Wire.read_checkpoint partial_ck in
  let resumed =
    Farm.Proc.run ~worker_argv ~resume:ck ~entry ~seeds (fcfg 2)
      (Workloads.Generate.compile p)
  in
  let row ?prefix mode w st =
    ( prefix,
      (col "mode" mode :: col "workers" (string_of_int w) :: farm_cells st)
      @ [ col "corpus" (string_of_int (List.length st.Farm.fs_corpus)) ] )
  in
  (* the correctness bar: every run — either substrate, any worker
     count, checkpointed or resumed — reports the same logical outcome *)
  let signature st =
    ( st.Farm.fs_coverage,
      st.Farm.fs_pruned,
      st.Farm.fs_corpus,
      st.Farm.fs_execs,
      st.Farm.fs_total_cycles )
  in
  let runs = (dom :: List.map snd results) @ [ ckpt_st; resumed ] in
  publish ~section:"farm_proc"
    ~tables:
      [
        ( Printf.sprintf
            "process farm, program %s (%d execs, sync every 50, resume from %d)"
            p.Workloads.Profile.name execs ck.Farm.Orch.ck_next,
          (row "domains" 2 dom
          :: List.map
               (fun (w, st) -> row ~prefix:(Printf.sprintf "w%d." w) "procs" w st)
               results)
          @ [ row "procs+ckpt" 2 ckpt_st; row "resume tail" 2 resumed ] );
      ]
    [
      check ~name:"invariant_all_runs"
        "identical (coverage, pruned, corpus, execs, cycles) across \
         substrates, worker counts and resume"
        (List.for_all (fun st -> signature st = signature dom) runs);
      count ~col:"checkpoints published" "checkpoints_published" checkpoints;
      count ~col:"resumed from exec" "resume_from_exec" ck.Farm.Orch.ck_next;
    ]

(* ------------------------------------------------------------------ *)
(* Mutation testing: kill-matrix campaigns by probe toggling           *)
(* ------------------------------------------------------------------ *)

(** The amortization bar (the reason mutation testing rides on Odin's
    machinery at all): a campaign of hundreds of mutants over sqlite-xl
    performs exactly one full compile+link; arming each mutant
    afterwards is a probe toggle served by an O(changed) schedule pass
    and an incremental relink. Checked live:
    [full_links = initial_links] and [incr_links >= mutants]. Its wall
    time is bench/e2e's mutate-xl workload. A smaller campaign then
    re-runs with 1/2/4 workers on both farm substrates and the merged
    kill matrices are compared bit-for-bit. *)
let mutate_bench _cfg =
  print_endline "\n== Mutation testing (kill matrix by probe toggling) ==";
  let n_mutants = if !quick_mode then 100 else 500 in
  let suite = Workloads.Generate.seed_inputs ~count:3 sqlite_xl in
  let mcfg =
    {
      Mutate.Analysis.default_config with
      Mutate.Analysis.mc_limit = Some n_mutants;
      mc_chunk = 32;
    }
  in
  let matrix, stats =
    Mutate.Analysis.run ~entry ~suite mcfg (Workloads.Generate.compile sqlite_xl)
  in
  let amortized =
    stats.Mutate.Analysis.s_full_links = stats.Mutate.Analysis.s_initial_links
    && stats.Mutate.Analysis.s_incr_links >= matrix.Mutate.Analysis.m_generated
  in
  (* worker-count / substrate invariance on a smaller campaign: the
     merged kill matrix must be bit-identical for 1/2/4 domain workers
     and for supervised child processes *)
  let small = Workloads.Profile.find_exn "sqlite" in
  let ssuite = Workloads.Generate.seed_inputs ~count:3 small in
  let run_small (nm, workers, mode) =
    let scfg =
      {
        Mutate.Analysis.default_config with
        Mutate.Analysis.mc_workers = workers;
        mc_mode = mode;
        mc_limit = Some 60;
        mc_chunk = 7;
        mc_worker_argv = Some [| Sys.executable_name; "mutate-worker" |];
      }
    in
    let mx, st =
      Mutate.Analysis.run ~entry ~suite:ssuite scfg
        (Workloads.Generate.compile small)
    in
    ( mx,
      ( None,
        [
          col "mode" nm;
          col "workers" (string_of_int workers);
          col "score %" (Printf.sprintf "%.1f" mx.Mutate.Analysis.m_score);
          col "incr relinks" (string_of_int st.Mutate.Analysis.s_incr_links);
        ] ) )
  in
  let outs =
    List.map run_small
      [
        ("domains", 1, Mutate.Analysis.Domains);
        ("domains", 2, Mutate.Analysis.Domains);
        ("domains", 4, Mutate.Analysis.Domains);
        ("procs", 2, Mutate.Analysis.Procs);
      ]
  in
  let matrices = List.map fst outs in
  publish ~section:"mutate"
    ~tables:
      [
        ( Printf.sprintf "mutation campaign, program %s (%d mutants x %d tests)"
            sqlite_xl.Workloads.Profile.name matrix.Mutate.Analysis.m_generated
            matrix.Mutate.Analysis.m_tests,
          [
            ( Some "",
              [
                count ~col:"mutants" "mutants" matrix.Mutate.Analysis.m_generated;
                count "tests" matrix.Mutate.Analysis.m_tests;
                count ~col:"killed" "killed" matrix.Mutate.Analysis.m_killed;
                count ~col:"survived" "survived" matrix.Mutate.Analysis.m_survived;
                count ~col:"timeout" "timeout" matrix.Mutate.Analysis.m_timeout;
                real ~col:"score %" ~fmt:"%.1f" ~unit_:"%" ~cls:Snap.Exact "score"
                  matrix.Mutate.Analysis.m_score;
                count ~col:"full links" "full_links" stats.Mutate.Analysis.s_full_links;
                count ~col:"incr relinks" "incr_links" stats.Mutate.Analysis.s_incr_links;
              ] );
          ] );
        ( Printf.sprintf "substrate/worker invariance, program %s (60 mutants)"
            small.Workloads.Profile.name,
          List.map snd outs );
      ]
    [
      check ~name:"amortized"
        (Printf.sprintf
           "one compile, rest toggles (full %d = initial %d; incr %d >= %d mutants)"
           stats.Mutate.Analysis.s_full_links stats.Mutate.Analysis.s_initial_links
           stats.Mutate.Analysis.s_incr_links matrix.Mutate.Analysis.m_generated)
        amortized;
      check ~name:"invariant_across_workers"
        "identical kill matrix across worker counts and substrates"
        (List.for_all (fun mx -> mx = List.hd matrices) matrices);
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  (* the bench binary doubles as the process-farm worker executable:
     the supervisor re-execs us with the hidden subcommand *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "fuzz-worker" then begin
    Farm.Proc.worker_main ();
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "mutate-worker" then
    Mutate.Analysis.worker_main ();
  let args = Array.to_list Sys.argv |> List.tl in
  let rec strip_out_dir = function
    | [] -> []
    | "--out-dir" :: dir :: rest ->
      out_dir := dir;
      strip_out_dir rest
    | a :: rest when String.starts_with ~prefix:"--out-dir=" a ->
      out_dir := String.sub a 10 (String.length a - 10);
      strip_out_dir rest
    | a :: rest -> a :: strip_out_dir rest
  in
  let args = strip_out_dir args in
  let quick = List.mem "quick" args in
  quick_mode := quick;
  let cfg = if quick then quick_config else full_config in
  let selectors = List.filter (fun a -> a <> "quick") args in
  let wants x = selectors = [] || List.mem x selectors in
  let t0 = Unix.gettimeofday () in
  Printf.printf "Odin reproduction benchmark harness (%s mode, %d programs)\n"
    (if quick then "quick" else "full")
    (List.length cfg.programs);
  if wants "fig3" then fig3 cfg;
  if wants "fig2" then fig2 cfg;
  if wants "fig8" then fig8 cfg;
  if wants "fig9" then fig9 cfg;
  if wants "fig10" then fig10 cfg;
  if wants "fig11" then fig11 cfg;
  if wants "fig12" then fig12 cfg;
  if wants "ablation" then ablation cfg;
  if wants "timereport" then timereport cfg;
  if wants "parallel" then parallel cfg;
  if wants "relink" then relink cfg;
  if wants "tier" then tier cfg;
  if wants "schedule" then schedule_bench cfg;
  if wants "farm" then farm cfg;
  if wants "farm_proc" then farm_proc cfg;
  if wants "mutate" then mutate_bench cfg;
  Printf.printf "\nTotal bench time: %.1f s\n" (Unix.gettimeofday () -. t0)
