(* odinc — command-line driver for the Odin reproduction toolchain.

     odinc compile file.c [--optimize] [--emit ir|asm]
     odinc run file.c [--entry main] [--args 1,2,...] [--optimize]
     odinc partition file.c [--mode one|odin|max]
     odinc fuzz file.c [--execs N] [--no-prune] [--jobs N]
                       [--metrics-csv FILE] [--span-limit N]
                       [--workers N --journal FILE]
     odinc mutate file.c [--ops aor,ror,const,sdl,brs] [--workers N]
                         [--farm-mode domains|procs] [--tests N]
                         [--max-steps N] [--deadline SECS]
                         [--checkpoint FILE [--resume]] [--journal FILE]
     odinc bench-diff BASELINE CURRENT [--ignore CLASS]
     odinc report JOURNAL [--top N]
     odinc workload NAME          (print a generated benchmark program)

   compile/run/fuzz accept --time-report (per-stage text report on
   stderr-free stdout) and --trace-out FILE (Chrome trace_event JSON for
   chrome://tracing / Perfetto). Telemetry observes only: results are
   identical with and without the flags. fuzz additionally accepts
   --jobs N (fragment-compile parallelism; default ODIN_JOBS or the
   machine), --metrics-csv FILE (campaign series/histograms/recompile
   events as CSV) and --span-limit N (span retention bound for long
   campaigns; counters stay exact).

   bench-diff compares BENCH_*.json perf snapshots (see bench/main.exe
   --out-dir) with per-class tolerances and exits 1 on regression;
   report renders a farm's flight-recorder journal (--journal) as an
   AFL-style status screen plus a per-probe cost-attribution heatmap.
*)

open Cmdliner

module Snap = Telemetry.Snapshot

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let compile_source path = Minic.Lower.compile ~name:(Filename.basename path) (read_file path)

(* ---------------- fault injection ---------------- *)

let fault_plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Deterministic fault-injection plan, e.g. \
           $(b,seed=7;opt.pipeline:transient:p=0.3;link:raise:nth=2). Kinds: \
           raise|transient|torn|delay=SECS; triggers: always|nth=N|p=P. \
           Overrides \\$(b,ODIN_FAULTS).")

(* ODIN_FAULTS first, --fault-plan wins when both are given *)
let install_faults plan =
  (match Support.Fault.init_from_env () with
  | Result.Ok _ -> ()
  | Result.Error msg ->
    Printf.eprintf "odinc: bad ODIN_FAULTS: %s\n" msg;
    exit 2);
  match plan with
  | None -> ()
  | Some s -> (
    match Support.Fault.parse_plan s with
    | Result.Ok p -> Support.Fault.install p
    | Result.Error msg ->
      Printf.eprintf "odinc: bad --fault-plan: %s\n" msg;
      exit 2)

(* Run [f], rendering structured build/link/fault errors as readable
   diagnostics instead of raw backtraces. *)
let with_diagnostics f =
  try f () with
  | Odin.Session.Build_error e ->
    Printf.eprintf "odinc: %s\n" (Odin.Session.build_error_to_string e);
    exit 1
  | (Link.Linker.Link_error _ | Link.Linker.Duplicate_symbol _
    | Link.Linker.Undefined_symbol _) as exn_ ->
    let msg =
      match Link.Linker.link_error_message exn_ with
      | Some m -> m
      | None -> Printexc.to_string exn_
    in
    Printf.eprintf "odinc: link failed: %s\n" msg;
    exit 1
  | Support.Fault.Injected site ->
    Printf.eprintf "odinc: injected fault at site %s was not recovered\n" site;
    exit 1

(* ---------------- shared telemetry flags ---------------- *)

let time_report_arg =
  Arg.(
    value & flag
    & info [ "time-report" ]
        ~doc:"Print an LLVM -ftime-report-style per-stage breakdown.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event JSON trace (chrome://tracing).")

(* sum of every counter named [name] (labels collapsed) on the recorder *)
let counter_total (r : Telemetry.Recorder.t) name =
  List.fold_left
    (fun acc c ->
      if Telemetry.Metrics.counter_name c = name then
        acc + Telemetry.Metrics.value c
      else acc)
    0
    (Telemetry.Metrics.counters r.Telemetry.Recorder.metrics)

(* export the recorder according to the flags; no flags, no output *)
let export ~time_report ~trace_out ~title (r : Telemetry.Recorder.t) =
  if time_report then Telemetry.Report.print ~title r;
  match trace_out with
  | Some path -> (
    try
      Telemetry.Trace.write ~process_name:title r path;
      Printf.printf "trace written to %s\n" path
    with Sys_error msg ->
      Printf.eprintf "odinc: cannot write trace: %s\n" msg;
      exit 1)
  | None -> ()

(* ---------------- compile ---------------- *)

let emit_conv = Arg.enum [ ("ir", `Ir); ("asm", `Asm) ]

let compile_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let optimize =
    Arg.(value & flag & info [ "optimize"; "O" ] ~doc:"Run the O2 pipeline first.")
  in
  let emit =
    Arg.(value & opt emit_conv `Ir & info [ "emit" ] ~doc:"Output: ir or asm.")
  in
  let run file optimize emit time_report trace_out =
    let r = Telemetry.Recorder.create () in
    let span name f = Telemetry.Recorder.with_span r ~cat:"compile" name f in
    let m = span "frontend" (fun () -> compile_source file) in
    if optimize then ignore (Opt.Pipeline.run ~recorder:r m);
    span "verify" (fun () -> Ir.Verify.run_exn m);
    (match emit with
    | `Ir -> print_string (Ir.Print.module_to_string m)
    | `Asm ->
      let compiled =
        span "codegen" (fun () ->
            List.filter_map
              (fun f ->
                if Ir.Func.is_declaration f then None
                else Some (Codegen.Emit.compile_func f))
              (Ir.Modul.functions m))
      in
      List.iter (fun mf -> print_string (Codegen.Emit.func_to_string mf)) compiled);
    export ~time_report ~trace_out ~title:"odinc compile" r
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a mini-C file and print IR or machine code.")
    Term.(const run $ file $ optimize $ emit $ time_report_arg $ trace_out_arg)

(* ---------------- run ---------------- *)

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let entry =
    Arg.(value & opt string "main" & info [ "entry" ] ~doc:"Entry function.")
  in
  let args =
    Arg.(value & opt string "" & info [ "args" ] ~doc:"Comma-separated integers.")
  in
  let optimize = Arg.(value & flag & info [ "optimize"; "O" ] ~doc:"O2 first.") in
  let run file entry args optimize fault_plan time_report trace_out =
    install_faults fault_plan;
    with_diagnostics @@ fun () ->
    let r = Telemetry.Recorder.create () in
    let span name f = Telemetry.Recorder.with_span r ~cat:"run" name f in
    let m = span "frontend" (fun () -> compile_source file) in
    if optimize then ignore (Opt.Pipeline.run ~recorder:r ~keep:[ entry ] m);
    span "verify" (fun () -> Ir.Verify.run_exn m);
    let obj = span "codegen" (fun () -> Link.Objfile.of_module m) in
    let exe =
      span "link" (fun () -> Link.Linker.link ~host:[ "printf"; "puts" ] [ obj ])
    in
    let vm = Vm.create exe in
    let prof = Vm.enable_profile vm in
    List.iter (fun n -> Vm.register_host vm n (fun _ -> 0L)) [ "printf"; "puts" ];
    let int_args =
      if args = "" then []
      else List.map Int64.of_string (String.split_on_char ',' args)
    in
    let ret = span "execute" (fun () -> Vm.call vm entry int_args) in
    Printf.printf "%s(%s) = %Ld   [%d cycles, %d instructions]\n" entry args ret
      vm.Vm.cycles vm.Vm.steps;
    if time_report then begin
      (* VM profile: where did the cycles go? *)
      Support.Tab.print ~title:"VM cycle profile"
        ~header:[ "function"; "cycles"; "blocks entered" ]
        (List.map
           (fun (fn, cycles) ->
             let blocks =
               Option.value ~default:0
                 (List.assoc_opt fn (Vm.profile_blocks prof))
             in
             [ fn; string_of_int cycles; string_of_int blocks ])
           (Vm.profile_top prof));
      Printf.printf
        "block entries: %d  probe hits: %d  calls: %d  host calls: %d\n"
        prof.Vm.pr_block_hits prof.Vm.pr_probe_hits prof.Vm.pr_calls
        prof.Vm.pr_host_calls
    end;
    export ~time_report ~trace_out ~title:"odinc run" r
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile, link and execute a mini-C file on the VM.")
    Term.(
      const run $ file $ entry $ args $ optimize $ fault_plan_arg
      $ time_report_arg $ trace_out_arg)

(* ---------------- partition ---------------- *)

let mode_conv =
  Arg.enum
    [ ("one", Odin.Partition.One); ("odin", Odin.Partition.Auto);
      ("max", Odin.Partition.Max) ]

let partition_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let mode =
    Arg.(value & opt mode_conv Odin.Partition.Auto & info [ "mode" ] ~doc:"one|odin|max")
  in
  let keep =
    Arg.(value & opt string "main" & info [ "keep" ] ~doc:"Exported entry point.")
  in
  let run file mode keep =
    let m = compile_source file in
    let cls = Odin.Classify.classify ~keep:[ keep ] m in
    let plan = Odin.Partition.plan ~mode ~keep:[ keep ] m cls in
    Printf.printf "partition mode: %s\n" (Odin.Partition.mode_to_string mode);
    Printf.printf "symbol classification:\n";
    List.iter
      (fun gv ->
        if Ir.Modul.is_definition gv then begin
          let name = Ir.Modul.gvalue_name gv in
          let cat =
            match Odin.Classify.category_of cls name with
            | Odin.Classify.Bond -> "bond"
            | Odin.Classify.Copy_on_use -> "copy-on-use"
            | Odin.Classify.Fixed -> "fixed"
          in
          Printf.printf "  %-24s %s\n" name cat
        end)
      (Ir.Modul.globals m);
    Printf.printf "\n%d fragments:\n" (Odin.Partition.fragment_count plan);
    Array.iter
      (fun (f : Odin.Partition.fragment) ->
        Printf.printf "  #%d  exports/defines: %s\n" f.Odin.Partition.fid
          (String.concat ", " (Odin.Partition.SSet.elements f.Odin.Partition.members));
        if not (Odin.Partition.SSet.is_empty f.Odin.Partition.clones) then
          Printf.printf "      local clones: %s\n"
            (String.concat ", " (Odin.Partition.SSet.elements f.Odin.Partition.clones)))
      plan.Odin.Partition.fragments
  in
  Cmd.v
    (Cmd.info "partition" ~doc:"Show Odin's symbol classification and fragments.")
    Term.(const run $ file $ mode $ keep)

(* ---------------- fuzz ---------------- *)

let fuzz_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let entry =
    Arg.(value & opt string "target_main" & info [ "entry" ]
           ~doc:"Entry: int f(char *buf, int len).")
  in
  let execs = Arg.(value & opt int 500 & info [ "execs" ] ~doc:"Executions.") in
  let no_prune =
    Arg.(value & flag & info [ "no-prune" ] ~doc:"Disable probe pruning.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Fragment-compile parallelism (default: \\$(b,ODIN_JOBS) or the \
             machine's recommended domain count). Output is bit-identical \
             for any value.")
  in
  let metrics_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-csv" ] ~docv:"FILE"
          ~doc:
            "Write campaign metrics (coverage-over-time series, exec-cycle \
             histogram buckets, per-recompile events) as CSV.")
  in
  let span_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "span-limit" ] ~docv:"N"
          ~doc:
            "Retain at most N child spans per parent (oldest dropped, \
             drop counts kept); bounds trace memory on long campaigns. \
             Counters stay exact.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persistent content-addressed object store: compiled fragment \
             objects survive process restarts, so re-running the same \
             campaign recompiles 0 unchanged fragments. Corrupt or torn \
             entries are detected, quarantined and silently recompiled.")
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Run a fuzzing farm of N concurrent campaign workers instead of \
             a single campaign. Workers share the content-addressed object \
             cache and rendezvous at sync barriers (corpus exchange, global \
             coverage merge, globally-voted probe pruning). Results are \
             deterministic and identical for any N.")
  in
  let sync_interval =
    Arg.(
      value & opt int 100
      & info [ "sync-interval" ] ~docv:"K"
          ~doc:"Farm-wide executions between sync barriers (with --workers).")
  in
  let prune_quorum =
    Arg.(
      value & opt int 1
      & info [ "prune-quorum" ] ~docv:"V"
          ~doc:
            "Fired-execution votes required to prune a probe globally (with \
             --workers); 1 = Untracer policy.")
  in
  let cache_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-limit" ] ~docv:"BYTES"
          ~doc:
            "Garbage-collect the persistent object store down to BYTES at \
             every sync barrier (with --workers and --cache-dir): coldest \
             entries evicted first.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Campaign flight recorder (with --workers): a bounded JSONL \
             event journal fed at every sync barrier (sync stats, \
             farm/session/link counter snapshots, per-probe cost \
             attribution) and republished atomically each time — a killed \
             farm leaves the last barrier's journal, never a torn file. \
             Render it with $(b,odinc report).")
  in
  let farm_mode =
    Arg.(
      value
      & opt (enum [ ("domains", `Domains); ("procs", `Procs) ]) `Domains
      & info [ "farm-mode" ] ~docv:"MODE"
          ~doc:
            "Farm execution substrate (with --workers): $(b,domains) runs \
             workers on the OCaml domain pool in one process; $(b,procs) \
             runs each worker as a supervised child process (odinc \
             fuzz-worker) speaking the binary wire protocol over pipes, with \
             a preemptive heartbeat watchdog, kill/restart recovery and \
             retirement. Coverage, corpus and cycles are bit-identical \
             across modes.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Publish a campaign checkpoint atomically at every sync barrier \
             (with --workers); the previous checkpoint is rotated to \
             FILE.prev, so a crash mid-publish always leaves a complete one. \
             Resume with $(b,--resume).")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"CKPT"
          ~doc:
            "Resume a campaign from a checkpoint written by \
             $(b,--checkpoint) (falling back to CKPT.prev when the primary \
             is torn). The resumed campaign replays to the same final \
             coverage, corpus and journal tail as an uninterrupted run.")
  in
  let worker_timeout =
    Arg.(
      value & opt float 30.
      & info [ "worker-timeout" ] ~docv:"SECS"
          ~doc:
            "Preemptive watchdog deadline (with --farm-mode procs): a worker \
             process that sends no heartbeat for SECS seconds is SIGKILLed \
             and restarted on the same assignment.")
  in
  let adaptive_sync =
    Arg.(
      value & flag
      & info [ "adaptive-sync" ]
          ~doc:
            "Scale the sync interval adaptively (with --workers): after 3 \
             consecutive barriers that accept no input the interval doubles \
             (capped at 8x), and any new coverage resets it to the base. \
             The current interval is reported in the time report and \
             journal.")
  in
  let promote_share =
    Arg.(
      value & opt float 0.0
      & info [ "promote-share" ] ~docv:"F"
          ~doc:
            "Tiered compilation for the farm (with --workers): worker \
             sessions compile fresh fragments through the single-pass \
             tier-0 baseline backend, and at each barrier every fragment \
             whose share of the barrier-merged cycle profile reaches F is \
             promoted to the optimizing tier. Promotion decisions are a \
             pure function of the merged profile, so results stay \
             bit-identical across worker counts and farm modes. 0 \
             (default) keeps the farm untiered.")
  in
  (* ------------- farm mode (--workers N) ------------- *)
  let run_farm ~r ~pool ~m ~entry ~execs ~no_prune ~workers ~sync_interval
      ~prune_quorum ~cache_limit ~cache_dir ~journal ~farm_mode ~checkpoint
      ~resume ~worker_timeout ~adaptive_sync ~promote_share =
    let cfg =
      {
        Farm.default_config with
        Farm.fc_workers = workers;
        fc_execs = execs;
        fc_sync_interval = sync_interval;
        fc_prune_quorum = (if no_prune then 0 else prune_quorum);
        fc_cache_limit = cache_limit;
        fc_adaptive_sync = adaptive_sync;
        fc_promote_share = promote_share;
      }
    in
    let resume =
      match resume with
      | None -> None
      | Some path -> (
        match Farm.Wire.load_checkpoint path with
        | Ok (ck, fallback) ->
          if fallback then
            Printf.eprintf
              "odinc: warning: checkpoint %s torn or missing; resuming from \
               %s.prev\n"
              path path;
          Some ck
        | Error msg ->
          Printf.eprintf "odinc: %s\n" msg;
          exit 1)
    in
    let seeds = [ String.init 48 (fun i -> Char.chr ((i * 37) land 255)) ] in
    let st =
      match farm_mode with
      | `Domains ->
        Farm.run ~telemetry:r ~pool ?cache_dir ?journal_path:journal
          ?checkpoint_path:checkpoint ?resume ~host:[ "printf"; "puts" ] ~entry
          ~seeds cfg m
      | `Procs ->
        Farm.Proc.run ~telemetry:r ?cache_dir ?journal_path:journal
          ?checkpoint_path:checkpoint ?resume ~worker_timeout
          ~host:[ "printf"; "puts" ] ~entry ~seeds cfg m
    in
    Printf.printf "farm       : %d workers (%s), %d sync rounds (interval \
                   %d%s)\n"
      st.Farm.fs_workers
      (match farm_mode with `Domains -> "domains" | `Procs -> "procs")
      st.Farm.fs_sync_rounds sync_interval
      (if adaptive_sync then
         Printf.sprintf ", current %d"
           (counter_total r "farm.sync_interval_current")
       else "");
    Printf.printf "executions : %d merged (%d cycles)\n" st.Farm.fs_execs
      st.Farm.fs_total_cycles;
    Printf.printf "coverage   : %d / %d blocks (global bitmap)\n"
      (List.length st.Farm.fs_coverage)
      st.Farm.fs_total_probes;
    Printf.printf "corpus     : %d inputs (global)\n"
      (List.length st.Farm.fs_corpus);
    Printf.printf "pruned     : %d probes (global votes, quorum %d)\n"
      (List.length st.Farm.fs_pruned)
      cfg.Farm.fc_prune_quorum;
    Printf.printf "exchanged  : %d inputs (%d offered, %d duplicates, %d \
                   stale; dedup %.1f%%)\n"
      st.Farm.fs_exchanged st.Farm.fs_offered st.Farm.fs_duplicates
      st.Farm.fs_stale (Farm.dedup_rate st);
    Printf.printf "cache      : %d cross-worker object hits\n"
      st.Farm.fs_cross_hits;
    Printf.printf "recompiles : %d barrier refreshes\n" st.Farm.fs_recompiles;
    (if promote_share > 0. then
       match farm_mode with
       | `Domains ->
         Printf.printf
           "tier       : %d promotions landed (threshold %.2f), %d tier-0 \
            compiles\n"
           (counter_total r "farm.tier_promotions")
           promote_share
           (counter_total r "session.tier0_compiles")
       | `Procs ->
         (* worker sessions live in their own processes; their tier
            counters land in the per-worker journals, not here *)
         Printf.printf "tier       : tiered workers (threshold %.2f)\n"
           promote_share);
    Printf.printf
      "relinks    : %d incremental, %d full (%d symbols patched, %d shard \
       waits)\n"
      (counter_total r "link.relinks_incremental")
      (counter_total r "link.relinks_full")
      (counter_total r "link.symbols_patched")
      (counter_total r "session.cache_shard_waits");
    (match journal with
    | Some path -> Printf.printf "journal    : %s\n" path
    | None -> ());
    (match checkpoint with
    | Some path ->
      Printf.printf "checkpoint : %s (%d published%s)\n" path
        (counter_total r "farm.checkpoints")
        (if resume <> None then ", resumed" else "")
    | None -> ());
    (let restarts = counter_total r "farm.worker_restarts" in
     if restarts > 0 then
       Printf.printf "restarts   : %d worker kill/restarts\n" restarts);
    if st.Farm.fs_skipped > 0 || st.Farm.fs_crashes > 0 then
      Printf.printf "skipped    : %d executions (%d guest crashes)\n"
        st.Farm.fs_skipped st.Farm.fs_crashes;
    List.iter
      (fun (id, why) -> Printf.printf "dead       : worker %d — %s\n" id why)
      st.Farm.fs_dead;
    if st.Farm.fs_gc_evicted > 0 then
      Printf.printf "store gc   : %d entries evicted\n" st.Farm.fs_gc_evicted;
    (match Support.Fault.installed () with
    | Some plan ->
      Printf.printf "faults     : %d injected (plan %s)\n"
        (Support.Fault.total_fired ())
        (Support.Fault.to_string plan)
    | None -> ());
    match st.Farm.fs_store with
    | Some s ->
      Printf.printf
        "store      : %d hits, %d misses, %d writes, %d quarantined, %d \
         gc-evicted\n"
        s.Support.Objstore.st_hits s.Support.Objstore.st_misses
        s.Support.Objstore.st_writes s.Support.Objstore.st_quarantined
        s.Support.Objstore.st_gc_evicted
    | None -> ()
  in
  let run file entry execs no_prune jobs metrics_csv span_limit cache_dir
      workers sync_interval prune_quorum cache_limit journal farm_mode
      checkpoint resume worker_timeout adaptive_sync promote_share fault_plan
      time_report trace_out =
    install_faults fault_plan;
    with_diagnostics @@ fun () ->
    let r = Telemetry.Recorder.create ?span_limit () in
    let pool =
      match jobs with
      | Some n -> Support.Pool.create ~size:n ()
      | None -> Support.Pool.default ()
    in
    let metrics = r.Telemetry.Recorder.metrics in
    let m =
      Telemetry.Recorder.with_span r ~cat:"campaign" "frontend" (fun () ->
          compile_source file)
    in
    (if journal <> None && workers = None then
       Printf.eprintf
         "odinc: warning: --journal needs --workers (farm mode); ignored\n");
    match workers with
    | Some n ->
      run_farm ~r ~pool ~m ~entry ~execs ~no_prune ~workers:n ~sync_interval
        ~prune_quorum ~cache_limit ~cache_dir ~journal ~farm_mode ~checkpoint
        ~resume ~worker_timeout ~adaptive_sync ~promote_share;
      (match metrics_csv with
      | Some path -> (
        try
          Telemetry.Csv.write r path;
          Printf.printf "metrics csv written to %s\n" path
        with Sys_error msg ->
          Printf.eprintf "odinc: cannot write metrics csv: %s\n" msg;
          exit 1)
      | None -> ());
      export ~time_report ~trace_out ~title:"odinc fuzz" r
    | None ->
    let session =
      Odin.Session.create ~keep:[ entry ]
        ~runtime_globals:[ Odin.Cov.runtime_global m ]
        ~host:[ "printf"; "puts" ] ~pool ?cache_dir ~telemetry:r m
    in
    let cov = Odin.Cov.setup session in
    ignore (Odin.Session.build session);
    let recompiles = ref 0 in
    let rollbacks = ref 0 in
    let exec_counter = Telemetry.Metrics.counter metrics "campaign.execs" in
    let cov_counter =
      Telemetry.Metrics.counter metrics ~series:true "campaign.coverage"
    in
    let target =
      {
        Fuzzer.Fuzz.run =
          (fun input ->
            let vm =
              Telemetry.Recorder.with_span r ~cat:"campaign" "execute"
                (fun () ->
                  let vm = Vm.create (Odin.Session.executable session) in
                  List.iter
                    (fun n -> Vm.register_host vm n (fun _ -> 0L))
                    [ "printf"; "puts" ];
                  let addr = Vm.write_buffer vm input in
                  ignore
                    (Vm.call vm entry [ addr; Int64.of_int (String.length input) ]);
                  vm)
            in
            Telemetry.Metrics.incr exec_counter;
            Telemetry.Metrics.observe metrics "campaign.exec_cycles"
              (float_of_int vm.Vm.cycles);
            let fresh = Odin.Cov.harvest cov vm in
            if fresh <> [] then
              Telemetry.Metrics.incr ~by:(List.length fresh) cov_counter;
            if not no_prune then begin
              let pruned = Odin.Cov.prune_fired cov in
              (* refresh when probes were pruned, and also when a prior
                 rebuild left fragments degraded (re-heal attempt).
                 Transactional: a degraded refresh still produced a
                 consistent executable; a rollback keeps the previous
                 one — the campaign continues either way *)
              if pruned > 0 || Odin.Session.degraded_fragments session <> []
              then
                match Odin.Session.try_refresh session with
                | Some (Odin.Session.Ok | Odin.Session.Degraded _) ->
                  incr recompiles
                | Some (Odin.Session.Rolled_back _) -> incr rollbacks
                | None -> ()
            end;
            { Fuzzer.Fuzz.ex_cycles = vm.Vm.cycles; ex_new_blocks = List.length fresh });
      }
    in
    let rng = Support.Rng.create 42 in
    let seeds = [ String.init 48 (fun i -> Char.chr ((i * 37) land 255)) ] in
    let corpus, stats =
      Telemetry.Recorder.with_span r ~cat:"campaign" "fuzz" (fun () ->
          Fuzzer.Fuzz.collect_corpus ~rng ~seeds ~execs target)
    in
    Printf.printf "executions : %d\n" stats.Fuzzer.Fuzz.executions;
    Printf.printf "corpus     : %d inputs\n" (Fuzzer.Corpus.size corpus);
    Printf.printf "coverage   : %d / %d blocks\n" (Odin.Cov.covered cov)
      cov.Odin.Cov.total_probes;
    Printf.printf "recompiles : %d\n" !recompiles;
    (if Odin.Session.tiered session then
       let ts = Odin.Session.tier_stats session in
       Printf.printf
         "tier       : %d tier-0 compiles (cost %d), %d tier-1 (cost %d), \
          %d promotions, %d OSR migrations\n"
         ts.Odin.Session.ts_tier0_compiles ts.Odin.Session.ts_tier0_cost
         ts.Odin.Session.ts_tier1_compiles ts.Odin.Session.ts_tier1_cost
         ts.Odin.Session.ts_promotions ts.Odin.Session.ts_osr_migrations);
    Printf.printf
      "relinks    : %d incremental, %d full (%d symbols patched, %d shard \
       waits)\n"
      (counter_total r "link.relinks_incremental")
      (counter_total r "link.relinks_full")
      (counter_total r "link.symbols_patched")
      (counter_total r "session.cache_shard_waits");
    (* robustness summary: only printed when something interesting can
       happen (faults installed, a store attached, or an actual event) *)
    let degraded_now = Odin.Session.degraded_fragments session in
    if
      Support.Fault.installed () <> None
      || !rollbacks > 0
      || Odin.Session.degrade_total session > 0
    then begin
      Printf.printf "degraded   : %d fragments now (%d degradations total)\n"
        (List.length degraded_now)
        (Odin.Session.degrade_total session);
      Printf.printf "rollbacks  : %d\n" (Odin.Session.rollbacks session);
      match Support.Fault.installed () with
      | Some plan ->
        Printf.printf "faults     : %d injected (plan %s)\n"
          (Support.Fault.total_fired ())
          (Support.Fault.to_string plan)
      | None -> ()
    end;
    (match Odin.Session.store_stats session with
    | Some st ->
      Printf.printf
        "store      : %d hits, %d misses, %d writes, %d quarantined\n"
        st.Support.Objstore.st_hits st.Support.Objstore.st_misses
        st.Support.Objstore.st_writes st.Support.Objstore.st_quarantined
    | None -> ());
    if time_report then begin
      (* the recompile events are a view over the same span tree the
         report renders, so these sums equal the report's stage totals *)
      let events = Odin.Session.events session in
      let sum f = List.fold_left (fun a e -> a +. f e) 0. events in
      let isum f = List.fold_left (fun a e -> a + f e) 0 events in
      Printf.printf
        "recompile events: %d  compile total %.3f ms  link total %.3f ms  \
         cache hits %d/%d fragments\n"
        (List.length events)
        (1000. *. sum (fun e -> e.Odin.Session.ev_compile_time))
        (1000. *. sum (fun e -> e.Odin.Session.ev_link_time))
        (isum (fun e -> e.Odin.Session.ev_cache_hits))
        (isum (fun e -> List.length e.Odin.Session.ev_fragments))
    end;
    (match metrics_csv with
    | Some path -> (
      (* one row group per recompile event, alongside the campaign
         series/histograms — everything a coverage/latency plot needs *)
      let extra_rows =
        List.concat
          (List.mapi
             (fun i (e : Odin.Session.recompile_event) ->
               let row name v = Telemetry.Csv.row [ "recompile"; name; string_of_int i; v ] in
               [
                 row "fragments"
                   (string_of_int (List.length e.Odin.Session.ev_fragments));
                 row "cache_hits" (string_of_int e.Odin.Session.ev_cache_hits);
                 row "compile_ms"
                   (Printf.sprintf "%.6f" (1000. *. e.Odin.Session.ev_compile_time));
                 row "link_ms"
                   (Printf.sprintf "%.6f" (1000. *. e.Odin.Session.ev_link_time));
                 row "link_incremental"
                   (if e.Odin.Session.ev_link_incremental then "1" else "0");
                 row "symbols_patched"
                   (string_of_int e.Odin.Session.ev_symbols_patched);
               ])
             (Odin.Session.events session))
      in
      try
        Telemetry.Csv.write ~extra_rows r path;
        Printf.printf "metrics csv written to %s\n" path
      with Sys_error msg ->
        Printf.eprintf "odinc: cannot write metrics csv: %s\n" msg;
        exit 1)
    | None -> ());
    export ~time_report ~trace_out ~title:"odinc fuzz" r
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Fuzz a mini-C target with OdinCov (live pruning).")
    Term.(
      const run $ file $ entry $ execs $ no_prune $ jobs $ metrics_csv
      $ span_limit $ cache_dir $ workers $ sync_interval $ prune_quorum
      $ cache_limit $ journal $ farm_mode $ checkpoint $ resume
      $ worker_timeout $ adaptive_sync $ promote_share
      $ fault_plan_arg $ time_report_arg $ trace_out_arg)

(* ---------------- bench-diff ---------------- *)

let list_snapshots dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 6
         && String.sub f 0 6 = "BENCH_"
         && Filename.check_suffix f ".json")
  |> List.sort compare

let verdict_str = function
  | Snap.Pass -> "pass"
  | Snap.Warn -> "WARN"
  | Snap.Fail -> "FAIL"

let bench_diff_cmd =
  let baseline =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASELINE"
          ~doc:"Baseline BENCH_*.json snapshot, or a directory of them.")
  in
  let current =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CURRENT"
          ~doc:"Current snapshot file or directory to gate.")
  in
  let cls_conv =
    Arg.enum [ ("exact", Snap.Exact); ("cost", Snap.Cost); ("wall", Snap.Wall) ]
  in
  let ignore_cls =
    Arg.(
      value & opt_all cls_conv []
      & info [ "ignore" ] ~docv:"CLASS"
          ~doc:
            "Exempt a whole tolerance class (exact|cost|wall) from gating; \
             repeatable. CI gates committed baselines across machines with \
             $(b,--ignore wall) — wall-clock only gates on a fixed host.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Print every metric comparison, not only drifting ones.")
  in
  let require_baseline =
    Arg.(
      value & flag
      & info [ "require-baseline" ]
          ~doc:
            "Fail when CURRENT contains a snapshot absent from BASELINE. By \
             default such a section passes with a note, so a new bench \
             section can land before its committed baseline.")
  in
  let run baseline current ignore_cls verbose require_baseline =
    (* directory mode pairs the *union* of both sides' snapshot names:
       baseline-only -> the current run lost a section (always a
       failure); current-only -> a new section with no baseline yet
       (pass with a note unless --require-baseline) *)
    let pairs =
      if Sys.file_exists baseline && Sys.is_directory baseline then begin
        if not (Sys.file_exists current && Sys.is_directory current) then begin
          Printf.eprintf "odinc: %s is a directory but %s is not\n" baseline
            current;
          exit 2
        end;
        let names =
          List.sort_uniq compare
            (list_snapshots baseline @ list_snapshots current)
        in
        if names = [] then begin
          Printf.eprintf "odinc: no BENCH_*.json snapshots under %s or %s\n"
            baseline current;
          exit 2
        end;
        List.map
          (fun f ->
            let b = Filename.concat baseline f in
            ( (if Sys.file_exists b then Some b else None),
              Filename.concat current f,
              f ))
          names
      end
      else [ (Some baseline, current, Filename.basename baseline) ]
    in
    let ign =
      match ignore_cls with
      | [] -> ""
      | l ->
        Printf.sprintf " (ignoring: %s)"
          (String.concat ", " (List.map Snap.cls_to_string l))
    in
    Printf.printf "== bench-diff: %s vs %s%s ==\n" baseline current ign;
    let n_warn = ref 0 and n_fail = ref 0 and n_metrics = ref 0 in
    List.iter
      (fun (bpath, cpath, name) ->
        match bpath with
        | None -> (
          match Snap.read cpath with
          | Error msg ->
            Printf.eprintf "odinc: %s: %s\n" cpath msg;
            exit 2
          | Ok cur ->
            n_metrics := !n_metrics + List.length cur.Snap.s_metrics;
            if require_baseline then begin
              Printf.printf "%-24s FAIL  new section %s has no baseline\n" name
                cur.Snap.s_section;
              incr n_fail
            end
            else
              Printf.printf
                "%-24s pass  new section %s — no baseline to gate against \
                 (--require-baseline to fail)\n"
                name cur.Snap.s_section)
        | Some bpath -> (
        match Snap.read bpath with
        | Error msg ->
          Printf.eprintf "odinc: %s: %s\n" bpath msg;
          exit 2
        | Ok base ->
          if not (Sys.file_exists cpath) then begin
            Printf.printf "%-24s FAIL  current snapshot missing (%s)\n" name
              cpath;
            incr n_fail
          end
          else (
            match Snap.read cpath with
            | Error msg ->
              Printf.eprintf "odinc: %s: %s\n" cpath msg;
              exit 2
            | Ok cur ->
              let entries =
                Snap.diff ~ignore_classes:ignore_cls ~baseline:base
                  ~current:cur ()
              in
              n_metrics := !n_metrics + List.length entries;
              Printf.printf "%-24s %s  (%d metrics, section %s)\n" name
                (verdict_str (Snap.worst entries))
                (List.length entries) base.Snap.s_section;
              List.iter
                (fun (e : Snap.entry) ->
                  let interesting =
                    e.Snap.d_verdict <> Snap.Pass || e.Snap.d_note <> ""
                  in
                  if verbose || interesting then begin
                    (match e.Snap.d_verdict with
                    | Snap.Warn -> incr n_warn
                    | Snap.Fail -> incr n_fail
                    | Snap.Pass -> ());
                    let num = function
                      | Some v -> Printf.sprintf "%.6g" v
                      | None -> "-"
                    in
                    Printf.printf "  [%s] %-32s %-5s %12s -> %-12s %+7.2f%%  %s\n"
                      (verdict_str e.Snap.d_verdict)
                      e.Snap.d_name
                      (Snap.cls_to_string e.Snap.d_class)
                      (num e.Snap.d_base) (num e.Snap.d_cur)
                      (100.
                      *. (if Float.is_finite e.Snap.d_delta then e.Snap.d_delta
                          else if e.Snap.d_delta > 0. then 99.99
                          else -99.99))
                      e.Snap.d_note
                  end)
                entries)))
      pairs;
    Printf.printf "summary: %d snapshots, %d metrics, %d warnings, %d failures\n"
      (List.length pairs) !n_metrics !n_warn !n_fail;
    if !n_fail > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare benchmark snapshots with per-class tolerances; exit 1 on \
          regression.")
    Term.(
      const run $ baseline $ current $ ignore_cls $ verbose $ require_baseline)

(* ---------------- report (flight-recorder journal) ---------------- *)

let report_cmd =
  let journal =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOURNAL" ~doc:"Flight-recorder journal (odinc fuzz --journal).")
  in
  let top =
    Arg.(
      value & opt int 15
      & info [ "top" ] ~docv:"N" ~doc:"Rows in the probe-cost heatmap.")
  in
  let run path top =
    let module J = Telemetry.Journal in
    let l = J.load path in
    let last kind =
      List.fold_left
        (fun acc (e : J.event) -> if e.J.e_kind = kind then Some e else acc)
        None l.J.l_events
    in
    let fi ev name = Option.value ~default:0 (J.field_int ev name) in
    Printf.printf "== campaign flight recorder: %s ==\n" path;
    Printf.printf "journal    : %d events retained, %d dropped, %d unparseable\n"
      (List.length l.J.l_events) l.J.l_dropped l.J.l_skipped;
    (match last "farm.done" with
    | Some ev ->
      Printf.printf "status     : campaign complete — %d workers\n"
        (fi ev "workers");
      Printf.printf "executions : %d merged (%d cycles)\n" (fi ev "execs")
        (fi ev "cycles");
      Printf.printf "coverage   : %d / %d blocks\n" (fi ev "coverage")
        (fi ev "total_probes");
      Printf.printf "pruned     : %d probes\n" (fi ev "pruned");
      Printf.printf "exchanged  : %d inputs\n" (fi ev "exchanged");
      if fi ev "crashes" > 0 then
        Printf.printf "crashes    : %d guest crashes\n" (fi ev "crashes")
    | None -> (
      match last "farm.sync" with
      | Some ev ->
        Printf.printf
          "status     : in flight — last barrier round %d (%d execs, %d/%s \
           blocks)\n"
          (fi ev "round") (fi ev "execs") (fi ev "coverage") "?"
      | None ->
        if last "mutate.done" = None && last "mutant" = None then
          Printf.printf "status     : no farm events in journal\n"));
    (match last "farm.sync" with
    | Some ev -> (
      match J.field_int ev "interval" with
      | Some n -> Printf.printf "sync intvl : %d executions (at last barrier)\n" n
      | None -> ())
    | None -> ());
    (match last "counters" with
    | Some ev -> (
      match J.field_int ev "store.quarantined" with
      | Some q ->
        Printf.printf "quarantine : %d corrupt store entries quarantined\n" q
      | None -> ())
    | None -> ());
    (match last "counters" with
    | Some ev ->
      print_endline "counters   : (at last barrier)";
      List.iter
        (fun (k, v) ->
          match v with
          | Telemetry.Json.Int n when k <> "round" ->
            Printf.printf "  %-32s %d\n" k n
          | _ -> ())
        ev.J.e_fields
    | None -> ());
    (* mutation campaign: per-mutant verdict events + the summary *)
    (match last "mutate.done" with
    | Some ev ->
      Printf.printf
        "mutation   : %d mutants — %d killed, %d survived, %d timeout \
         (score %.1f%%)\n"
        (fi ev "generated") (fi ev "killed") (fi ev "survived")
        (fi ev "timeout")
        (Option.value ~default:0. (J.field_float ev "score"));
      Printf.printf
        "amortized  : %d full links, %d incremental mutant toggles\n"
        (fi ev "full_links") (fi ev "incr_links")
    | None -> ());
    let mutants =
      List.filter (fun (e : J.event) -> e.J.e_kind = "mutant") l.J.l_events
    in
    (let survivors =
       List.filter
         (fun e -> J.field_str e "verdict" = Some "survived")
         mutants
     in
     if survivors <> [] then begin
       let fs ev name = Option.value ~default:"?" (J.field_str ev name) in
       Support.Tab.print
         ~title:
           (Printf.sprintf "surviving mutants (%d of %d)"
              (List.length survivors) (List.length mutants))
         ~header:[ "id"; "operator"; "target"; "mutation" ]
         (List.map
            (fun ev ->
              [
                string_of_int (fi ev "id"); fs ev "op"; fs ev "target";
                fs ev "desc";
              ])
            survivors)
     end
     else if mutants <> [] then
       print_endline "mutation   : no surviving mutants — suite kills all");
    (* probe-cost heatmap: latest probe.cost event per pid *)
    let costs : (int, int * int * int * int) Hashtbl.t = Hashtbl.create 97 in
    List.iter
      (fun (e : J.event) ->
        if e.J.e_kind = "probe.cost" then
          Hashtbl.replace costs (fi e "pid")
            (fi e "toggles", fi e "execs_armed", fi e "hits", fi e "cycles"))
      l.J.l_events;
    if Hashtbl.length costs > 0 then begin
      let all =
        Hashtbl.fold (fun pid v acc -> (pid, v) :: acc) costs []
        |> List.sort (fun (p1, (_, _, _, c1)) (p2, (_, _, _, c2)) ->
               match compare c2 c1 with 0 -> compare p1 p2 | n -> n)
      in
      let covered =
        List.length (List.filter (fun (_, (_, _, h, _)) -> h > 0) all)
      in
      let total_cycles =
        List.fold_left (fun a (_, (_, _, _, c)) -> a + c) 0 all
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: tl -> x :: take (n - 1) tl
      in
      Support.Tab.print
        ~title:
          (Printf.sprintf "probe cost attribution (top %d of %d by cycles)"
             (min top (List.length all))
             (List.length all))
        ~header:
          [ "pid"; "toggles"; "execs armed"; "hits"; "cycles"; "cyc/exec" ]
        (List.map
           (fun (pid, (tg, ea, h, c)) ->
             [
               string_of_int pid;
               string_of_int tg;
               string_of_int ea;
               string_of_int h;
               string_of_int c;
               (if ea = 0 then "-"
                else Printf.sprintf "%.3f" (float_of_int c /. float_of_int ea));
             ])
           (take top all));
      Printf.printf
        "coverage yield: %d covered blocks / %d probe cycles = %.4f per \
         kcycle\n"
        covered total_cycles
        (if total_cycles = 0 then 0.
         else 1000. *. float_of_int covered /. float_of_int total_cycles)
    end
    else print_endline "probe cost : no probe.cost events in journal"
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a campaign flight-recorder journal: status summary + \
          per-probe cost heatmap.")
    Term.(const run $ journal $ top)

(* ---------------- mutate ---------------- *)

let mutate_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let entry =
    Arg.(value & opt string "target_main" & info [ "entry" ]
           ~doc:"Entry: int f(char *buf, int len).")
  in
  let ops =
    Arg.(
      value & opt string "all"
      & info [ "ops" ] ~docv:"SPEC"
          ~doc:
            "Comma-separated operator families to plant: \
             $(b,aor) (arithmetic swap), $(b,ror) (relational swap), \
             $(b,const) (literal +1), $(b,sdl) (store deletion), \
             $(b,brs) (branch swap). $(b,all) selects every family.")
  in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N" ~doc:"Keep only the first N mutants.")
  in
  let tests =
    Arg.(
      value & opt int 4
      & info [ "tests" ] ~docv:"N"
          ~doc:
            "Size of the deterministic generated test suite (inputs of \
             increasing length; the same N always yields the same suite, \
             so matrices are comparable across runs).")
  in
  let workers =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Distribute the campaign over N workers. The merged kill \
             matrix is bit-identical for any N and either farm mode.")
  in
  let farm_mode =
    Arg.(
      value
      & opt (enum [ ("domains", Mutate.Analysis.Domains);
                    ("procs", Mutate.Analysis.Procs) ])
          Mutate.Analysis.Domains
      & info [ "farm-mode" ] ~docv:"MODE"
          ~doc:
            "Distribution substrate: $(b,domains) shares one process and \
             one object cache; $(b,procs) supervises child processes \
             (odinc mutate-worker) with heartbeat watchdog and \
             kill/restart recovery.")
  in
  let max_steps =
    Arg.(
      value & opt int Mutate.Analysis.default_config.Mutate.Analysis.mc_max_steps
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Per-test VM step budget: a mutant that exhausts it gets the \
             $(b,timeout) verdict instead of hanging the campaign.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:"Per-test wall-clock backstop on top of the step budget.")
  in
  let chunk =
    Arg.(
      value & opt int 16
      & info [ "chunk" ] ~docv:"K" ~doc:"Mutants dealt per worker per round.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Publish the kill matrix so far atomically after every round \
             (previous checkpoint rotated to FILE.prev). Resume with \
             $(b,--resume).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue from the $(b,--checkpoint) file: finished rows are \
             loaded, only the remaining mutants run, and the final matrix \
             equals an uninterrupted run's.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Flight-recorder journal: one event per mutant verdict plus \
             the campaign summary. Render with $(b,odinc report).")
  in
  let worker_timeout =
    Arg.(
      value & opt float 30.
      & info [ "worker-timeout" ] ~docv:"SECS"
          ~doc:
            "Preemptive watchdog deadline (with --farm-mode procs): a \
             silent worker is SIGKILLed and its mutants re-dealt.")
  in
  let run file entry ops limit tests workers farm_mode max_steps deadline
      chunk checkpoint resume journal worker_timeout fault_plan time_report
      trace_out =
    install_faults fault_plan;
    with_diagnostics @@ fun () ->
    let families =
      try Mutate.Gen.families_of_spec ops
      with Invalid_argument msg ->
        Printf.eprintf "odinc: %s\n" msg;
        exit 2
    in
    if resume && checkpoint = None then begin
      Printf.eprintf "odinc: --resume needs --checkpoint FILE\n";
      exit 2
    end;
    let r = Telemetry.Recorder.create () in
    let m =
      Telemetry.Recorder.with_span r ~cat:"mutate" "frontend" (fun () ->
          compile_source file)
    in
    (* deterministic suite: same --tests N, same inputs, same matrix *)
    let suite =
      List.init tests (fun t ->
          String.init (8 + (8 * t)) (fun i ->
              Char.chr (((i * 37) + (t * 11) + 5) land 255)))
    in
    let cfg =
      {
        Mutate.Analysis.default_config with
        Mutate.Analysis.mc_workers = workers;
        mc_mode = farm_mode;
        mc_families = families;
        mc_limit = limit;
        mc_max_steps = max_steps;
        mc_deadline = deadline;
        mc_chunk = chunk;
        mc_checkpoint = checkpoint;
        mc_resume = resume;
        mc_worker_timeout = worker_timeout;
      }
    in
    let matrix, stats =
      Mutate.Analysis.run ~telemetry:r ?journal_path:journal
        ~host:[ "printf"; "puts" ] ~entry ~suite cfg m
    in
    print_string (Mutate.Analysis.render matrix);
    Printf.printf "workers    : %d (%s)\n" workers
      (match farm_mode with
      | Mutate.Analysis.Domains -> "domains"
      | Mutate.Analysis.Procs -> "procs");
    Printf.printf "compiles   : %d full build%s (one per worker session)\n"
      stats.Mutate.Analysis.s_initial_links
      (if stats.Mutate.Analysis.s_initial_links = 1 then "" else "s");
    Printf.printf
      "relinks    : %d incremental (mutant toggles), %d full (%d symbols \
       patched)\n"
      stats.Mutate.Analysis.s_incr_links stats.Mutate.Analysis.s_full_links
      stats.Mutate.Analysis.s_symbols_patched;
    if stats.Mutate.Analysis.s_resumed_rows > 0 then
      Printf.printf "resumed    : %d rows loaded from checkpoint\n"
        stats.Mutate.Analysis.s_resumed_rows;
    if stats.Mutate.Analysis.s_restarts > 0 then
      Printf.printf "restarts   : %d worker kill/restarts\n"
        stats.Mutate.Analysis.s_restarts;
    List.iter
      (fun (id, why) -> Printf.printf "retired    : worker %d — %s\n" id why)
      stats.Mutate.Analysis.s_retired;
    (match journal with
    | Some path -> Printf.printf "journal    : %s\n" path
    | None -> ());
    (match checkpoint with
    | Some path -> Printf.printf "checkpoint : %s\n" path
    | None -> ());
    export ~time_report ~trace_out ~title:"odinc mutate" r
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:
         "Mutation-test a mini-C target: one compile, one incremental \
          relink per mutant, kill matrix out.")
    Term.(
      const run $ file $ entry $ ops $ limit $ tests $ workers $ farm_mode
      $ max_steps $ deadline $ chunk $ checkpoint $ resume $ journal
      $ worker_timeout $ fault_plan_arg $ time_report_arg $ trace_out_arg)

(* ---------------- workload ---------------- *)

let workload_cmd =
  let wname = Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME") in
  let run name =
    match Workloads.Profile.find name with
    | Some p -> print_string (Workloads.Generate.source p)
    | None ->
      Printf.eprintf "unknown workload %S; available: %s\n" name
        (String.concat ", "
           (List.map (fun (p : Workloads.Profile.t) -> p.Workloads.Profile.name)
              Workloads.Profile.all));
      exit 1
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Print the generated source of a benchmark workload.")
    Term.(const run $ wname)

let () =
  (* hidden re-exec entry for the process farm: the supervisor spawns
     `odinc fuzz-worker` and immediately speaks wire frames on
     stdin/stdout, so this must not go through cmdliner *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "fuzz-worker" then begin
    Farm.Proc.worker_main ();
    exit 0
  end;
  (* same trick for the mutation farm's supervised children *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "mutate-worker" then
    Mutate.Analysis.worker_main ();
  let doc = "Odin on-demand instrumentation toolchain (PLDI 2022 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "odinc" ~doc)
          [
            compile_cmd; run_cmd; partition_cmd; fuzz_cmd; mutate_cmd;
            bench_diff_cmd; report_cmd; workload_cmd;
          ]))
