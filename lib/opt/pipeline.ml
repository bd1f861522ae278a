(** The standard optimization pipeline ("O2") and the trial run used by
    Odin's pre-fuzzing survey.

    Pipeline shape follows the classic middle-end recipe: put the program
    into SSA form, simplify locally, then alternate interprocedural and
    local passes to a fixpoint (bounded).

    When a {!Telemetry.Recorder.t} is supplied, every pass execution is
    wrapped in a span (the LLVM PassInstrumentation analogue) and the
    registry gains [opt.rounds] and per-pass [opt.pass.changed]
    counters. Telemetry only observes: pass order, fixpoint behavior and
    the resulting IR are identical with and without a recorder.

    Re-entrancy contract: [run] / [run_fragment] may execute
    concurrently from multiple domains on DISTINCT modules. Pass values
    are built fresh per invocation and all analysis state lives in the
    per-call [Pass.make_ctx]; nothing in the pass set may introduce
    top-level mutable state (gensym counters, scratch tables, memo
    caches) — Session.rebuild depends on this to compile fragments in
    parallel. Callers running concurrently must pass distinct
    recorders (see [Telemetry.Recorder.fork]).

    Memoization lives one level up, not here: the pipeline is a pure
    function of its input module (given the round bound), so
    Session.rebuild short-circuits a fragment whose structural digest
    ([Ir.Shash]) hits its object cache and never calls [run_fragment]
    for it — the [session.opt_memo_hits] counter records those skips.
    Keeping this module memo-free is what keeps it trivially
    re-entrant. *)

let standard_passes ?(keep = [ "main" ]) () =
  [
    Internalize.pass ~keep;
    Mem2reg.pass;
    Constfold.pass;
    Instcombine.pass;
    Simplifycfg.pass;
    Gvn.pass;
    Dce.pass;
    Inline.pass;
    Dead_arg_elim.pass;
    Constfold.pass;
    Instcombine.pass;
    Jump_threading.pass;
    Loop_unroll.pass;
    Simplifycfg.pass;
    Gvn.pass;
    Dce.pass;
  ]

(* passes used for fragment recompilation: Internalize is *not* run —
   fragment symbol visibility was already decided by the partitioner, and
   demoting an exported symbol would break cross-fragment links *)
let fragment_passes () =
  [
    Mem2reg.pass;
    Constfold.pass;
    Instcombine.pass;
    Simplifycfg.pass;
    Gvn.pass;
    Dce.pass;
    Inline.pass;
    Dead_arg_elim.pass;
    Constfold.pass;
    Instcombine.pass;
    Jump_threading.pass;
    Loop_unroll.pass;
    Simplifycfg.pass;
    Gvn.pass;
    Dce.pass;
  ]

(* Modelled work of one pass execution: one scan of every defined
   instruction in the module. Accumulated into the [?cost] ref threaded
   from [run_fragment] — the tier bench compares this against the
   baseline backend, which skips the pipeline entirely. *)
let module_insts modul =
  List.fold_left
    (fun acc fn -> acc + Ir.Func.insn_count fn)
    0
    (Ir.Modul.defined_functions modul)

(* One pass execution, timed and counted when [recorder] is present. *)
let run_pass ?cost recorder ctx (p : Pass.t) =
  (match cost with
  | Some c -> c := !c + module_insts ctx.Pass.modul
  | None -> ());
  let changed =
    Telemetry.Recorder.span_opt recorder ~cat:"pass" p.Pass.name (fun () ->
        p.Pass.run ctx)
  in
  if changed then
    Telemetry.Recorder.count recorder ~labels:[ ("pass", p.Pass.name) ]
      "opt.pass.changed";
  changed

(* Bounded-fixpoint driver shared by [run] and [run_fragment]; [track]
   additionally advances [ctx.rounds] (the survey's round log). *)
let fixpoint ?recorder ?cost ~max_rounds ~track ctx passes =
  let rec go round =
    if round < max_rounds then begin
      if track then ctx.Pass.rounds <- round + 1;
      Telemetry.Recorder.count recorder "opt.rounds";
      let changed =
        List.fold_left
          (fun acc p -> run_pass ?cost recorder ctx p || acc)
          false passes
      in
      if changed then go (round + 1)
    end
  in
  go 0

(** Run the O2 pipeline to a bounded fixpoint. Returns the pass context
    (which carries the requirement log when [trial] is set). *)
let run ?recorder ?(trial = false) ?(max_rounds = 5) ?(keep = [ "main" ]) modul =
  Support.Fault.hit "opt.pipeline";
  let ctx = Pass.make_ctx ~trial modul in
  Telemetry.Recorder.span_opt recorder ~cat:"opt" "optimize" (fun () ->
      fixpoint ?recorder ~max_rounds ~track:true ctx (standard_passes ~keep ()));
  ctx

(** Optimize a single fragment module during recompilation. Declares the
    ["opt.pipeline"] fault site: an injected fault here surfaces as a
    fragment-compile failure that Session retries or degrades. *)
let run_fragment ?recorder ?cost ?(max_rounds = 2) modul =
  Support.Fault.hit "opt.pipeline";
  let ctx = Pass.make_ctx ~trial:false modul in
  Telemetry.Recorder.span_opt recorder ~cat:"opt" "optimize" (fun () ->
      fixpoint ?recorder ?cost ~max_rounds ~track:false ctx (fragment_passes ()));
  ctx
