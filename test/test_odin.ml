(* Tests for the Odin core: symbol classification (Section 3.2 step 1),
   fragment creation (Algorithm 1), missing-symbol handling and
   internalization, the recompilation scheduler (Algorithm 2), the
   copy-instrument-split flow, probe pruning, and the correctness of the
   executables Odin produces across recompilations. *)

module SSet = Set.Make (String)

(* The Figure 6 example program (printf takes the literal directly so the
   instcombine rewrite sees the constant). *)
let fig6_src =
  {|
extern int printf(char *fmt);
static int n;
static int add(void) { n = n + 1; return n; }
static int neg(int x) { return -n; }
void show(void) { printf("hi\n"); }
int main(void) { show(); return neg(add()); }
|}

let compile = Minic.Lower.compile

(* ---------------- classification ---------------- *)

let test_classify_fig6 () =
  let m = compile fig6_src in
  let cls = Odin.Classify.classify ~keep:[ "main" ] m in
  (* the string literal is clonable and needed by instcombine *)
  Alcotest.(check bool) "string is copy-on-use" true
    (Odin.Classify.category_of cls ".str.0" = Odin.Classify.Copy_on_use);
  (* neg's dead argument bonds it to its caller *)
  let bonded a b =
    List.exists
      (fun (x, y) -> (x = a && y = b) || (x = b && y = a))
      cls.Odin.Classify.bonds
  in
  Alcotest.(check bool) "neg bonded to main" true (bonded "neg" "main");
  (* the mutable global n is not clonable *)
  Alcotest.(check bool) "n is not copy-on-use" true
    (Odin.Classify.category_of cls "n" <> Odin.Classify.Copy_on_use)

let test_classify_alias_innate () =
  let m =
    Ir.Parse.module_of_string
      {|
@second_name = external alias @base
define external @base() i32 {
entry:
  ret i32 1
}
|}
  in
  let bonds = Odin.Classify.innate_bonds m in
  Alcotest.(check bool) "alias bonded to base" true
    (List.exists (fun (a, b) -> a = "second_name" && b = "base") bonds)

let test_classify_comdat_innate () =
  let m =
    Ir.Parse.module_of_string
      {|
define external @f1() comdat(grp) i32 {
entry:
  ret i32 1
}
define external @f2() comdat(grp) i32 {
entry:
  ret i32 2
}
|}
  in
  let bonds = Odin.Classify.innate_bonds m in
  Alcotest.(check bool) "comdat members bonded" true
    (List.exists
       (fun (a, b) -> (a = "f1" && b = "f2") || (a = "f2" && b = "f1"))
       bonds)

(* ---------------- partitioning ---------------- *)

let definitions m =
  List.filter Ir.Modul.is_definition (Ir.Modul.globals m)
  |> List.map Ir.Modul.gvalue_name

let plan_of ?(mode = Odin.Partition.Auto) src =
  let m = compile src in
  let cls = Odin.Classify.classify ~keep:[ "main" ] m in
  (m, Odin.Partition.plan ~mode ~keep:[ "main" ] m cls)

(* a program with functions too big to inline, so Auto keeps them apart *)
let multi_src =
  {|
static int acc;
int work_a(int x) {
  int r = x;
  for (int i = 0; i < 10; i++) { r = r * 3 + i; r = r ^ (r >> 2); r = r + i * 7; }
  for (int i = 0; i < 10; i++) { r = r - i; r = r | 1; r = r * 5 + 11; }
  return r;
}
int work_b(int x) {
  int r = x + 1;
  for (int i = 0; i < 12; i++) { r = r * 7 + i; r = r ^ (r >> 3); r = r - i * 5; }
  for (int i = 0; i < 12; i++) { r = r + i; r = r & 0xFFFF; r = r * 3 + 13; }
  return r;
}
int main(int x) {
  acc = work_a(x);
  return work_b(acc);
}
|}

let test_partition_modes () =
  let m, plan_one = plan_of ~mode:Odin.Partition.One multi_src in
  Alcotest.(check int) "one fragment" 1 (Odin.Partition.fragment_count plan_one);
  let _, plan_max = plan_of ~mode:Odin.Partition.Max multi_src in
  Alcotest.(check int) "max fragments = defs" (List.length (definitions m))
    (Odin.Partition.fragment_count plan_max);
  let _, plan_auto = plan_of ~mode:Odin.Partition.Auto multi_src in
  Alcotest.(check bool) "auto in between" true
    (Odin.Partition.fragment_count plan_auto >= 1
    && Odin.Partition.fragment_count plan_auto
       <= Odin.Partition.fragment_count plan_max)

let test_partition_covers_definitions () =
  List.iter
    (fun mode ->
      let m, plan = plan_of ~mode multi_src in
      let defs = SSet.of_list (definitions m) in
      let in_fragments =
        Array.fold_left
          (fun acc (f : Odin.Partition.fragment) ->
            Odin.Partition.SSet.fold SSet.add f.Odin.Partition.members acc)
          SSet.empty plan.Odin.Partition.fragments
      in
      let copy_on_use =
        SSet.filter
          (fun s ->
            Odin.Classify.category_of plan.Odin.Partition.classification s
            = Odin.Classify.Copy_on_use
            && mode <> Odin.Partition.One)
          defs
      in
      (* fragments + copy-on-use = all definitions, disjointly *)
      Alcotest.(check bool)
        "every definition placed" true
        (SSet.equal (SSet.union in_fragments copy_on_use) defs);
      (* no symbol in two fragments *)
      let total =
        Array.fold_left
          (fun acc (f : Odin.Partition.fragment) ->
            acc + Odin.Partition.SSet.cardinal f.Odin.Partition.members)
          0 plan.Odin.Partition.fragments
      in
      Alcotest.(check int) "disjoint" (SSet.cardinal in_fragments) total)
    [ Odin.Partition.One; Odin.Partition.Auto; Odin.Partition.Max ]

let test_partition_internalizes () =
  let _, plan = plan_of ~mode:Odin.Partition.Auto multi_src in
  (* main is kept exported *)
  Alcotest.(check bool) "main exported" true
    (Hashtbl.find plan.Odin.Partition.visibility "main" = Ir.Func.External)

(* Materialize all fragments, link them, and compare against a plain
   whole-program build. *)
let link_fragments ?(host = []) (m : Ir.Modul.t) (plan : Odin.Partition.plan) =
  let source _ = None in
  let objs =
    Array.to_list plan.Odin.Partition.fragments
    |> List.map (fun f ->
           let fm = Odin.Partition.materialize plan f ~source ~base:m in
           Ir.Verify.run_exn fm;
           ignore (Opt.Pipeline.run_fragment fm);
           Link.Objfile.of_module fm)
  in
  Link.Incremental.link ~host objs

let test_partition_links_and_runs () =
  List.iter
    (fun mode ->
      let m, plan = plan_of ~mode multi_src in
      let exe = link_fragments m plan in
      let vm = Vm.create exe in
      let got = Vm.call vm "main" [ 5L ] in
      (* reference: interpret the unoptimized whole program *)
      let st = Ir.Interp.create (compile multi_src) in
      let expected = Ir.Interp.run st "main" [ 5L ] in
      Alcotest.(check int64)
        (Printf.sprintf "mode %s agrees" (Odin.Partition.mode_to_string mode))
        expected got)
    [ Odin.Partition.One; Odin.Partition.Auto; Odin.Partition.Max ]

let test_partition_fig6_copy_on_use_cloned () =
  (* copy-on-use cloning is survey knowledge, so it applies in Auto mode
     (One keeps everything local; blind Max has no survey) *)
  let m, plan = plan_of ~mode:Odin.Partition.Auto fig6_src in
  (* find the fragment containing show; it must clone the string *)
  match Odin.Partition.fragment_of plan "show" with
  | None -> Alcotest.fail "show not in any fragment"
  | Some fid ->
    let f = plan.Odin.Partition.fragments.(fid) in
    Alcotest.(check bool) "string cloned into show's fragment" true
      (Odin.Partition.SSet.mem ".str.0" f.Odin.Partition.clones);
    let fm =
      Odin.Partition.materialize plan f ~source:(fun _ -> None) ~base:m
    in
    Ir.Verify.run_exn fm;
    (* the clone carries a fragment-unique internal name *)
    Alcotest.(check bool) "clone present" true
      (Ir.Modul.mem fm (Printf.sprintf ".str.0$f%d" fid))

(* ---------------- session + OdinCov end to end ---------------- *)

let target_src =
  {|
int classify(int x) {
  if (x < 10) return 1;
  if (x < 100) {
    int acc = 0;
    for (int i = 0; i < 4; i++) acc += x >> i;
    return acc;
  }
  return -1;
}
int main(int x) { return classify(x); }
|}

let make_cov_session ?(mode = Odin.Partition.Auto) src =
  let m = compile src in
  let session =
    Odin.Session.create ~mode ~keep:[ "main" ]
      ~runtime_globals:[ Odin.Cov.runtime_global m ]
      m
  in
  let cov = Odin.Cov.setup session in
  ignore (Odin.Session.build session);
  (session, cov)

let vm_of session =
  Vm.create (Odin.Session.executable session)

let test_session_builds_and_runs () =
  let session, _cov = make_cov_session target_src in
  let vm = vm_of session in
  Alcotest.(check int64) "main(5)" 1L (Vm.call vm "main" [ 5L ]);
  Alcotest.(check int64) "main(50)" (Int64.of_int (50 + 25 + 12 + 6))
    (Vm.call vm "main" [ 50L ]);
  Alcotest.(check int64) "main(5000)" (-1L) (Vm.call vm "main" [ 5000L ])

let test_session_counters_fire () =
  let session, cov = make_cov_session target_src in
  let vm = vm_of session in
  ignore (Vm.call vm "main" [ 5L ]);
  let fresh = Odin.Cov.harvest cov vm in
  Alcotest.(check bool) "some probes fired" true (List.length fresh > 0);
  Alcotest.(check bool) "not all probes fired" true
    (List.length fresh < cov.Odin.Cov.total_probes)

let test_session_prune_recompiles_and_speeds_up () =
  let session, cov = make_cov_session target_src in
  let vm = vm_of session in
  ignore (Vm.call vm "main" [ 50L ]);
  let instrumented_cycles = vm.Vm.cycles in
  ignore (Odin.Cov.harvest cov vm);
  let pruned = Odin.Cov.prune_fired cov in
  Alcotest.(check bool) "pruned something" true (pruned > 0);
  (match Odin.Session.refresh session with
  | Some event ->
    Alcotest.(check bool) "recompiled some fragments" true
      (event.Odin.Session.ev_fragments <> [])
  | None -> Alcotest.fail "expected a rebuild");
  let vm2 = vm_of session in
  let r = Vm.call vm2 "main" [ 50L ] in
  Alcotest.(check int64) "result unchanged after prune" 93L r;
  Alcotest.(check bool) "pruned run is cheaper" true
    (vm2.Vm.cycles < instrumented_cycles);
  (* counters on the executed path are gone *)
  Alcotest.(check int) "no fresh coverage" 0
    (List.length (Odin.Cov.harvest cov vm2))

let test_session_scope_is_limited () =
  (* with Max partitioning, pruning probes in one function must not
     recompile the others *)
  let session, cov = make_cov_session ~mode:Odin.Partition.Max multi_src in
  let nfrags = Odin.Partition.fragment_count session.Odin.Session.plan in
  let vm = vm_of session in
  ignore (Vm.call vm "work_a" [ 3L ]);
  ignore (Odin.Cov.harvest cov vm);
  ignore (Odin.Cov.prune_fired cov);
  match Odin.Session.refresh session with
  | Some event ->
    Alcotest.(check bool) "recompiled a strict subset of fragments" true
      (List.length event.Odin.Session.ev_fragments < nfrags);
    (* work_a's fragment is in the set *)
    let fid = Option.get (Odin.Partition.fragment_of session.Odin.Session.plan "work_a") in
    Alcotest.(check bool) "work_a's fragment recompiled" true
      (List.mem fid event.Odin.Session.ev_fragments)
  | None -> Alcotest.fail "expected a rebuild"

let test_session_unchanged_fragments_reuse_cache () =
  let session, cov = make_cov_session ~mode:Odin.Partition.Max multi_src in
  let before = Hashtbl.copy session.Odin.Session.cache in
  let vm = vm_of session in
  ignore (Vm.call vm "work_a" [ 3L ]);
  ignore (Odin.Cov.harvest cov vm);
  ignore (Odin.Cov.prune_fired cov);
  (match Odin.Session.refresh session with Some _ -> () | None -> Alcotest.fail "rebuild");
  let changed = ref 0 and unchanged = ref 0 in
  Hashtbl.iter
    (fun fid obj ->
      match Hashtbl.find_opt session.Odin.Session.cache fid with
      | Some obj2 when obj == obj2 -> incr unchanged
      | _ -> incr changed)
    before;
  Alcotest.(check bool) "cache objects reused" true (!unchanged > 0);
  Alcotest.(check bool) "some objects replaced" true (!changed > 0)

let test_session_back_propagation () =
  (* Algorithm 2 lines 13-17: when fragment F is recompiled because one
     probe changed, the *other* active probes in F must be re-applied —
     their counters keep working after the rebuild. *)
  let session, cov = make_cov_session ~mode:Odin.Partition.One target_src in
  let vm = vm_of session in
  ignore (Vm.call vm "main" [ 5L ]);
  ignore (Odin.Cov.harvest cov vm);
  ignore (Odin.Cov.prune_fired cov);
  ignore (Odin.Session.refresh session);
  (* a fresh path should still produce fresh coverage *)
  let vm2 = vm_of session in
  ignore (Vm.call vm2 "main" [ 50L ]);
  let fresh = Odin.Cov.harvest cov vm2 in
  Alcotest.(check bool) "remaining probes still live after rebuild" true
    (List.length fresh > 0)

let test_session_events_recorded () =
  let session, cov = make_cov_session target_src in
  let vm = vm_of session in
  ignore (Vm.call vm "main" [ 5L ]);
  ignore (Odin.Cov.harvest cov vm);
  ignore (Odin.Cov.prune_fired cov);
  let refreshed = Odin.Session.refresh session in
  Alcotest.(check int) "two rebuilds (build + refresh)" 2
    (Telemetry.Recorder.value
       (Some session.Odin.Session.telemetry)
       "session.rebuilds");
  match refreshed with
  | Some e ->
    Alcotest.(check bool) "compile time measured" true
      (e.Odin.Session.ev_compile_time >= 0.)
  | None -> Alcotest.fail "refresh recompiled nothing"

(* ---------------- CmpLog ---------------- *)

let cmp_src =
  {|
int check_magic(int x) {
  if (x == 13371337) return 1;
  return 0;
}
int main(int x) { return check_magic(x + 1); }
|}

let test_cmplog_records_original_operands () =
  let m = compile cmp_src in
  let session = Odin.Session.create ~keep:[ "main" ] m in
  let cmplog = Odin.Cmplog.setup session in
  ignore (Odin.Session.build session);
  let vm = vm_of session in
  Vm.register_host vm Odin.Cmplog.runtime_fn (Odin.Cmplog.host_hook cmplog);
  ignore (Vm.call vm "main" [ 41L ]);
  let records = Odin.Cmplog.drain cmplog in
  (* instrument-first: the logged operand is the *original* value x+1 = 42
     compared against the magic constant — exactly what input-to-state
     correspondence needs *)
  Alcotest.(check bool) "operands logged" true
    (List.exists
       (fun (r : Odin.Cmplog.record) ->
         (r.Odin.Cmplog.rec_lhs = 42L && r.Odin.Cmplog.rec_rhs = 13371337L)
         || (r.Odin.Cmplog.rec_lhs = 13371337L && r.Odin.Cmplog.rec_rhs = 42L))
       records)

let test_cmplog_prune_solved () =
  let m = compile cmp_src in
  let session = Odin.Session.create ~keep:[ "main" ] m in
  let cmplog = Odin.Cmplog.setup session in
  ignore (Odin.Session.build session);
  let vm = vm_of session in
  Vm.register_host vm Odin.Cmplog.runtime_fn (Odin.Cmplog.host_hook cmplog);
  (* see both outcomes of the magic check *)
  ignore (Vm.call vm "main" [ 41L ]);
  ignore (Vm.call vm "main" [ 13371336L ]);
  ignore (Odin.Cmplog.drain cmplog);
  let pruned = Odin.Cmplog.prune_solved cmplog in
  Alcotest.(check bool) "solved comparison pruned" true (pruned > 0);
  (match Odin.Session.refresh session with
  | Some _ -> ()
  | None -> Alcotest.fail "expected rebuild");
  (* after the rebuild the pruned comparison logs nothing *)
  let vm2 = vm_of session in
  Vm.register_host vm2 Odin.Cmplog.runtime_fn (Odin.Cmplog.host_hook cmplog);
  ignore (Vm.call vm2 "main" [ 41L ]);
  let records = Odin.Cmplog.drain cmplog in
  Alcotest.(check bool) "no more logging for solved cmp" true
    (not
       (List.exists
          (fun (r : Odin.Cmplog.record) -> r.Odin.Cmplog.rec_rhs = 13371337L)
          records))

(* ---------------- checks (Section 7 future work) ---------------- *)

let checks_src =
  {|
int divide(int a, int b) { return a / b; }
int main(int a, int b) { return divide(a, b + 1); }
|}

let test_checks_detect_violation () =
  let m = compile checks_src in
  let session = Odin.Session.create ~keep:[ "main" ] m in
  let checks = Odin.Checks.setup session in
  ignore (Odin.Session.build session);
  let vm = vm_of session in
  List.iter (fun (n, h) -> Vm.register_host vm n h) (Odin.Checks.host_hooks checks);
  ignore (Vm.call vm "main" [ 10L; 1L ]);
  Alcotest.(check int) "no violation yet" 0 (List.length checks.Odin.Checks.violations);
  (try ignore (Vm.call vm "main" [ 10L; -1L ]) with Vm.Fault _ -> ());
  Alcotest.(check bool) "division-by-zero flagged" true
    (List.length checks.Odin.Checks.violations > 0)

let test_checks_hot_pruning () =
  let m = compile checks_src in
  let session = Odin.Session.create ~keep:[ "main" ] m in
  let checks = Odin.Checks.setup session in
  ignore (Odin.Session.build session);
  let vm = vm_of session in
  List.iter (fun (n, h) -> Vm.register_host vm n h) (Odin.Checks.host_hooks checks);
  for i = 1 to 150 do
    ignore (Vm.call vm "main" [ Int64.of_int i; 2L ])
  done;
  let pruned = Odin.Checks.prune_hot ~threshold:100 checks in
  Alcotest.(check bool) "hot check pruned" true (pruned > 0);
  (match Odin.Session.refresh session with Some _ -> () | None -> Alcotest.fail "rebuild");
  let vm2 = vm_of session in
  List.iter (fun (n, h) -> Vm.register_host vm2 n h) (Odin.Checks.host_hooks checks);
  let trips_before = checks.Odin.Checks.trips in
  ignore (Vm.call vm2 "main" [ 5L; 2L ]);
  Alcotest.(check int) "no more trips after pruning" trips_before
    checks.Odin.Checks.trips


let test_combined_cov_and_cmplog_session () =
  (* two schemes composed in one session: coverage counters and CmpLog
     probes both survive each other's rebuild cycles *)
  let m = compile cmp_src in
  let session =
    Odin.Session.create ~keep:[ "main" ]
      ~runtime_globals:[ Odin.Cov.runtime_global m ]
      m
  in
  let cov = Odin.Cov.setup session in
  let cmplog = Odin.Cmplog.setup session in
  ignore (Odin.Session.build session);
  let run x =
    let vm = Vm.create (Odin.Session.executable session) in
    Vm.register_host vm Odin.Cmplog.runtime_fn (Odin.Cmplog.host_hook cmplog);
    let r = Vm.call vm "main" [ x ] in
    (r, vm)
  in
  let _, vm = run 41L in
  (* both feedback channels live *)
  Alcotest.(check bool) "coverage fired" true
    (List.length (Odin.Cov.harvest cov vm) > 0);
  Alcotest.(check bool) "cmplog fired" true (Odin.Cmplog.drain cmplog <> []);
  (* prune coverage; CmpLog probes must survive the rebuild *)
  ignore (Odin.Cov.prune_fired cov);
  (match Odin.Session.refresh session with
  | Some _ -> ()
  | None -> Alcotest.fail "rebuild expected");
  let r2, vm2 = run 41L in
  Alcotest.(check int64) "semantics stable" 0L r2;
  Alcotest.(check int) "coverage quiet after prune" 0
    (List.length (Odin.Cov.harvest cov vm2));
  Alcotest.(check bool) "cmplog still logging after coverage prune" true
    (Odin.Cmplog.drain cmplog <> [])

(* property: for random small programs, Odin's partitioned+instrumented
   build computes the same results as the reference interpreter, across
   a prune/rebuild cycle *)
let prop_session_correct_across_rebuilds =
  QCheck2.Test.make ~name:"Odin build = reference across prune/rebuild" ~count:15
    QCheck2.Gen.(pair (int_range 2 4) (int_range (-50) 50))
    (fun (nfuncs, x) ->
      let fns =
        List.init nfuncs (fun i ->
            Printf.sprintf
              "int fn%d(int x) { int r = x + %d; for (int i = 0; i < %d; i++) r = r * 3 + i; if (r > 100) r = r - %d; return r; }"
              i i (2 + i) (i * 17))
      in
      let calls =
        String.concat " + "
          (List.init nfuncs (fun i -> Printf.sprintf "fn%d(x)" i))
      in
      let src =
        String.concat "\n" fns
        ^ Printf.sprintf "\nint main(int x) { return %s; }" calls
      in
      let m = compile src in
      let session =
        Odin.Session.create ~keep:[ "main" ]
          ~runtime_globals:[ Odin.Cov.runtime_global m ]
          m
      in
      let cov = Odin.Cov.setup session in
      ignore (Odin.Session.build session);
      let st = Ir.Interp.create (compile src) in
      let expected = Ir.Interp.run st "main" [ Int64.of_int x ] in
      let vm = vm_of session in
      let first = Vm.call vm "main" [ Int64.of_int x ] in
      ignore (Odin.Cov.harvest cov vm);
      ignore (Odin.Cov.prune_fired cov);
      ignore (Odin.Session.refresh session);
      let vm2 = vm_of session in
      let second = Vm.call vm2 "main" [ Int64.of_int x ] in
      first = expected && second = expected)


(* ---------------- ablations (DESIGN.md section 5) ---------------- *)

let test_ablation_no_backprop_loses_probes () =
  (* Algorithm 2 lines 13-17 exist for a reason: without back-propagation,
     recompiling a fragment silently drops the unchanged probes that lived
     in it — coverage goes dark *)
  let run ~backprop =
    let m = compile target_src in
    let session =
      Odin.Session.create ~mode:Odin.Partition.One ~keep:[ "main" ]
        ~runtime_globals:[ Odin.Cov.runtime_global m ]
        m
    in
    let cov = Odin.Cov.setup session in
    ignore (Odin.Session.build session);
    (* cover the x<10 path, prune it, rebuild with/without backprop *)
    let vm = Vm.create (Odin.Session.executable session) in
    ignore (Vm.call vm "main" [ 5L ]);
    ignore (Odin.Cov.harvest cov vm);
    ignore (Odin.Cov.prune_fired cov);
    ignore (Odin.Session.refresh ~backprop session);
    (* now run the other path: do the remaining probes still report? *)
    let vm2 = Vm.create (Odin.Session.executable session) in
    ignore (Vm.call vm2 "main" [ 50L ]);
    List.length (Odin.Cov.harvest cov vm2)
  in
  let with_bp = run ~backprop:true in
  let without_bp = run ~backprop:false in
  Alcotest.(check bool) "backprop keeps coverage alive" true (with_bp > 0);
  Alcotest.(check int) "without backprop the probes are gone" 0 without_bp

let test_ablation_copy_on_use_disabled () =
  (* without copy-on-use cloning, the string constant is a fragment of its
     own and local optimization cannot inspect it (missed printf->puts) *)
  let m = compile fig6_src in
  let cls = Odin.Classify.classify ~keep:[ "main" ] m in
  let with_cou = Odin.Partition.plan ~copy_on_use:true ~keep:[ "main" ] m cls in
  let without_cou = Odin.Partition.plan ~copy_on_use:false ~keep:[ "main" ] m cls in
  let total_clones plan =
    Array.fold_left
      (fun acc (f : Odin.Partition.fragment) ->
        acc + Odin.Partition.SSet.cardinal f.Odin.Partition.clones)
      0 plan.Odin.Partition.fragments
  in
  Alcotest.(check bool) "clones exist with copy-on-use" true (total_clones with_cou > 0);
  Alcotest.(check int) "no clones without" 0 (total_clones without_cou);
  (* and the constant becomes an ordinary fragment member *)
  Alcotest.(check bool) "constant gets its own placement" true
    (Odin.Partition.fragment_of without_cou ".str.0" <> None);
  (* both plans still produce working executables *)
  List.iter
    (fun plan ->
      let exe = link_fragments ~host:[ "printf"; "puts" ] m plan in
      let vm = Vm.create exe in
      Vm.register_host vm "printf" (fun _ -> 0L);
      Vm.register_host vm "puts" (fun _ -> 0L);
      ignore (Vm.call vm "main" []))
    [ with_cou; without_cou ]

let () =
  Alcotest.run "odin"
    [
      ( "classify",
        [
          Alcotest.test_case "Fig. 6 program" `Quick test_classify_fig6;
          Alcotest.test_case "alias innate bond" `Quick test_classify_alias_innate;
          Alcotest.test_case "comdat innate bond" `Quick test_classify_comdat_innate;
        ] );
      ( "partition",
        [
          Alcotest.test_case "modes" `Quick test_partition_modes;
          Alcotest.test_case "covers definitions" `Quick test_partition_covers_definitions;
          Alcotest.test_case "internalizes" `Quick test_partition_internalizes;
          Alcotest.test_case "links and runs" `Quick test_partition_links_and_runs;
          Alcotest.test_case "copy-on-use cloned (Fig. 6)" `Quick
            test_partition_fig6_copy_on_use_cloned;
        ] );
      ( "session",
        [
          Alcotest.test_case "builds and runs" `Quick test_session_builds_and_runs;
          Alcotest.test_case "counters fire" `Quick test_session_counters_fire;
          Alcotest.test_case "prune -> recompile -> faster" `Quick
            test_session_prune_recompiles_and_speeds_up;
          Alcotest.test_case "recompile scope limited" `Quick test_session_scope_is_limited;
          Alcotest.test_case "cache reuse" `Quick test_session_unchanged_fragments_reuse_cache;
          Alcotest.test_case "back propagation" `Quick test_session_back_propagation;
          Alcotest.test_case "events recorded" `Quick test_session_events_recorded;
          Alcotest.test_case "combined cov+cmplog schemes" `Quick
            test_combined_cov_and_cmplog_session;
          QCheck_alcotest.to_alcotest prop_session_correct_across_rebuilds;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "no backprop loses probes" `Quick
            test_ablation_no_backprop_loses_probes;
          Alcotest.test_case "copy-on-use disabled" `Quick
            test_ablation_copy_on_use_disabled;
        ] );
      ( "cmplog",
        [
          Alcotest.test_case "original operands (Fig. 2 fix)" `Quick
            test_cmplog_records_original_operands;
          Alcotest.test_case "prune solved" `Quick test_cmplog_prune_solved;
        ] );
      ( "checks",
        [
          Alcotest.test_case "detect violation" `Quick test_checks_detect_violation;
          Alcotest.test_case "hot pruning" `Quick test_checks_hot_pruning;
        ] );
    ]
