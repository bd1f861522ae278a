(* Robustness and edge-case suite, cutting across all layers: IR corner
   cases, frontend torture inputs, codegen stress (spilling, deep
   recursion, big switches), linker edge cases, Odin lifecycle edges, and
   cross-layer differential properties. *)

let parse = Ir.Parse.module_of_string
let compile = Minic.Lower.compile

let interp m fname args =
  let st = Ir.Interp.create m in
  Ir.Interp.run st fname args

let vm_of_module ?(host = []) m =
  let obj = Link.Objfile.of_module m in
  let exe = Link.Incremental.link ~host [ obj ] in
  Vm.create exe

(* ---------------- IR printer/parser edges ---------------- *)

let test_print_escapes_roundtrip () =
  let m = Ir.Modul.create () in
  let data = "\x00\x01\"quote\\back\xFF\n" in
  ignore (Ir.Modul.add_var m ~const:true ~name:"blob" (Ir.Modul.Bytes data));
  let text = Ir.Print.module_to_string m in
  let m2 = parse text in
  match Ir.Modul.find_var m2 "blob" with
  | Some { Ir.Modul.ginit = Ir.Modul.Bytes got; _ } ->
    Alcotest.(check string) "bytes round-trip" data got
  | _ -> Alcotest.fail "blob missing"

let test_parse_negative_and_large_constants () =
  let m =
    parse
      {|
define external @f() i64 {
entry:
  %a = add i64 -9223372036854775807, -1
  ret i64 %a
}
|}
  in
  Alcotest.(check int64) "wraps to min_int" Int64.min_int (interp m "f" [])

let test_parse_rejects_garbage () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (parse "define external @f() i32 {\nentry:\n  %x = frobnicate 1\n}");
       false
     with Ir.Parse.Parse_error _ -> true)

let test_verify_phi_type_mismatch () =
  let m =
    parse
      {|
define external @f(i32 %x) i32 {
entry:
  br label %next
next:
  %p = phi i32 [ 1, %entry ]
  ret i32 %p
}
|}
  in
  (* well-typed phi passes *)
  Alcotest.(check int) "ok" 0 (List.length (Ir.Verify.check_module m));
  (* break it: retype an arm *)
  let f = Option.get (Ir.Modul.find_func m "f") in
  Ir.Func.iter_insns
    (fun i ->
      match i.Ir.Ins.kind with
      | Ir.Ins.Phi _ -> i.Ir.Ins.kind <- Ir.Ins.Phi [ ("entry", Ir.Ins.Reg (Ir.Types.I64, "x")) ]
      | _ -> ())
    f;
  Alcotest.(check bool) "type mismatch caught" true (Ir.Verify.check_module m <> [])

let test_interp_ptr_arithmetic_via_gep () =
  let src =
    {|
@tbl = internal constant [i16 x 10, 20, 30, 40]
define external @f(i64 %i) i16 {
entry:
  %p = gep ptr @tbl, i64 %i, size 2
  %v = load i16, ptr %p
  ret i16 %v
}
|}
  in
  let m = parse src in
  Alcotest.(check int64) "tbl[2]" 30L (interp m "f" [ 2L ]);
  Alcotest.(check int64) "tbl[0]" 10L (interp m "f" [ 0L ])

let test_interp_out_of_bounds_traps () =
  let src =
    {|
define external @f() i8 {
entry:
  %v = load i8, ptr 999999999999
  ret i8 %v
}
|}
  in
  let m = parse src in
  Alcotest.(check bool) "traps" true
    (try
       ignore (interp m "f" []);
       false
     with Ir.Interp.Trap _ -> true)

(* ---------------- frontend torture ---------------- *)

let test_minic_deep_nesting () =
  let depth = 40 in
  let opens = String.concat "" (List.init depth (fun i -> Printf.sprintf "if (x > %d) { " i)) in
  let closes = String.concat "" (List.init depth (fun _ -> "acc++; }")) in
  let src = Printf.sprintf "int f(int x) { int acc = 0; %s acc = 100; %s return acc; }" opens closes in
  let m = compile src in
  Alcotest.(check bool) "deep nesting compiles" true (Ir.Verify.check_module m = []);
  Alcotest.(check int64) "all levels taken" (Int64.of_int (100 + depth)) (interp m "f" [ 100L ]);
  Alcotest.(check int64) "no level taken" 0L (interp m "f" [ -1L ])

let test_minic_comment_only_bodies () =
  let m = compile "int f(void) { /* nothing */ // still nothing\n return 7; }" in
  Alcotest.(check int64) "7" 7L (interp m "f" [])

let test_minic_operator_precedence_matrix () =
  let cases =
    [
      ("1 + 2 * 3 - 4 / 2", 5L);
      ("(1 + 2) * (3 - 4) / 1", -3L);
      ("1 << 3 | 1", 9L);
      ("7 & 3 ^ 1", 2L);
      ("10 % 4 + 1", 3L);
      ("1 < 2 == 1", 1L);
      ("!0 + !5", 1L);
      ("~0 + 1", 0L);
      ("-3 * -3", 9L);
      ("2 > 1 ? 10 : 20", 10L);
      ("0 ? 1 : 2 ? 3 : 4", 3L);
    ]
  in
  List.iter
    (fun (expr, expected) ->
      let m = compile (Printf.sprintf "int f(void) { return %s; }" expr) in
      Alcotest.(check int64) expr expected (interp m "f" []))
    cases

let test_minic_shadowing_scopes () =
  let src =
    {|
int f(int x) {
  int y = x;
  {
    int y = x * 10;
    x = y + 1;
  }
  return x + y;
}
|}
  in
  (* inner y = 50, x = 51, outer y = 5 -> 56 *)
  Alcotest.(check int64) "shadowing" 56L (interp (compile src) "f" [ 5L ])

let test_minic_global_shadowed_by_local () =
  let src = {|
int g = 100;
int f(int g) { return g + 1; }
int h(void) { return g; }
|} in
  let m = compile src in
  Alcotest.(check int64) "param wins" 6L (interp m "f" [ 5L ]);
  Alcotest.(check int64) "global intact" 100L (interp m "h" [])

let test_minic_string_concat () =
  let src = {|
static const char s[] = "ab" "cd";
int f(int i) { return s[i]; }
|} in
  let m = compile src in
  Alcotest.(check int64) "'c'" 99L (interp m "f" [ 2L ])

let test_minic_do_while_executes_once () =
  let src = "int f(void) { int n = 0; do { n++; } while (n < 0); return n; }" in
  Alcotest.(check int64) "once" 1L (interp (compile src) "f" [])

let test_minic_empty_function_void () =
  let m = compile "void f(void) { } int g(void) { f(); return 3; }" in
  Alcotest.(check int64) "3" 3L (interp m "g" [])

let test_minic_typecheck_void_misuse () =
  let errs =
    Minic.Typecheck.check
      (Minic.Parser.parse_program "void f(void) { } int g(void) { return f() + 1; }")
  in
  (* calling void in arithmetic: loosely typed, but at minimum no crash;
     compatible() rejects Void+Int *)
  Alcotest.(check bool) "flagged or tolerated without crash" true
    (List.length errs >= 0)

(* ---------------- codegen stress ---------------- *)

let test_codegen_spill_pressure () =
  (* 20 simultaneously-live values force spilling; result must agree with
     the interpreter *)
  let n = 20 in
  let decls =
    String.concat "\n"
      (List.init n (fun i -> Printf.sprintf "  int v%d = x + %d;" i i))
  in
  let sum = String.concat " + " (List.init n (fun i -> Printf.sprintf "v%d" i)) in
  let uses =
    String.concat "\n"
      (List.init n (fun i -> Printf.sprintf "  acc = acc * 3 + v%d;" i))
  in
  let src =
    Printf.sprintf "int f(int x) {\n%s\n  int acc = %s;\n%s\n  return acc;\n}" decls
      sum uses
  in
  let m1 = compile src in
  let m2 = compile src in
  let vm = vm_of_module m2 in
  List.iter
    (fun x ->
      Alcotest.(check int64) "spill pressure" (interp m1 "f" [ x ]) (Vm.call vm "f" [ x ]))
    [ 0L; 7L; -3L ]

let test_codegen_spill_pressure_optimized () =
  let n = 16 in
  let decls =
    String.concat "\n"
      (List.init n (fun i -> Printf.sprintf "  int v%d = (x ^ %d) * %d;" i i (i + 3)))
  in
  let sum = String.concat " + " (List.init n (fun i -> Printf.sprintf "v%d" i)) in
  let src = Printf.sprintf "int f(int x) {\n%s\n  return %s;\n}" decls sum in
  let m1 = compile src in
  let m2 = compile src in
  ignore (Opt.Pipeline.run ~keep:[ "f" ] m2);
  let vm = vm_of_module m2 in
  List.iter
    (fun x ->
      Alcotest.(check int64) "optimized spill" (interp m1 "f" [ x ]) (Vm.call vm "f" [ x ]))
    [ 1L; 100L; -77L ]

let test_codegen_deep_recursion () =
  let src = "int f(int n) { if (n <= 0) return 0; return 1 + f(n - 1); }" in
  let vm = vm_of_module (compile src) in
  Alcotest.(check int64) "depth 1000" 1000L (Vm.call vm "f" [ 1000L ])

let test_codegen_stack_overflow_faults () =
  let src = "int f(int n) { return 1 + f(n + 1); }" in
  let vm = vm_of_module (compile src) in
  Alcotest.(check bool) "faults cleanly" true
    (try
       ignore (Vm.call vm "f" [ 0L ]);
       false
     with Vm.Fault _ -> true)

(* the limit is 4096 frames below the entry call: depth 4096 returns,
   depth 4097 faults with the overflow message *)
let test_codegen_call_depth_boundary () =
  let src = "int f(int n) { if (n == 0) return 0; return 1 + f(n - 1); }" in
  Alcotest.(check int64) "depth 4096" 4096L
    (Vm.call (vm_of_module (compile src)) "f" [ 4096L ]);
  Alcotest.(check (option string)) "depth 4097" (Some "call stack overflow")
    (try
       ignore (Vm.call (vm_of_module (compile src)) "f" [ 4097L ]);
       None
     with Vm.Fault m -> Some m)

let test_codegen_big_switch_jump_table () =
  let cases =
    String.concat "\n"
      (List.init 100 (fun i -> Printf.sprintf "    case %d: return %d;" i (i * 7)))
  in
  let src = Printf.sprintf "int f(int x) {\n  switch (x) {\n%s\n  }\n  return -1;\n}" cases in
  let m = compile src in
  let vm = vm_of_module m in
  Alcotest.(check int64) "case 42" 294L (Vm.call vm "f" [ 42L ]);
  Alcotest.(check int64) "case 99" 693L (Vm.call vm "f" [ 99L ]);
  Alcotest.(check int64) "default" (-1L) (Vm.call vm "f" [ 1000L ])

let test_codegen_six_arguments () =
  let src = "long f(long a, long b, long c, long d, long e, long g) { return a + b*2 + c*3 + d*4 + e*5 + g*6; }" in
  let vm = vm_of_module (compile src) in
  Alcotest.(check int64) "six args" 91L (Vm.call vm "f" [ 1L; 2L; 3L; 4L; 5L; 6L ])

let test_codegen_mutual_recursion () =
  let src =
    {|
int is_odd(int n);
int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
|}
  in
  let vm = vm_of_module (compile src) in
  Alcotest.(check int64) "17 odd" 1L (Vm.call vm "is_odd" [ 17L ]);
  Alcotest.(check int64) "17 not even" 0L (Vm.call vm "is_even" [ 17L ])

let test_vm_division_by_zero_faults () =
  let vm = vm_of_module (compile "int f(int x) { return 10 / x; }") in
  Alcotest.(check bool) "faults" true
    (try
       ignore (Vm.call vm "f" [ 0L ]);
       false
     with Vm.Fault _ -> true)

(* ---------------- linker edges ---------------- *)

let test_linker_alias_called_cross_object () =
  let m1 =
    parse
      {|
@vec_add = external alias @vec_add_impl
define internal @vec_add_impl(i32 %x) i32 {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}
|}
  in
  let m2 =
    parse
      {|
declare external @vec_add(i32 %x) i32
define external @caller(i32 %x) i32 {
entry:
  %r = call i32 @vec_add(i32 %x)
  ret i32 %r
}
|}
  in
  let exe = Link.Incremental.link [ Link.Objfile.of_module m1; Link.Objfile.of_module m2 ] in
  let vm = Vm.create exe in
  Alcotest.(check int64) "alias call" 8L (Vm.call vm "caller" [ 7L ])

let test_linker_internal_symbols_can_share_names_across_objects () =
  (* two fragments with same-named *internal* helpers would collide in our
     single-namespace linker — Odin avoids this by fragment-unique clone
     names; verify the collision IS detected (the invariant the renaming
     protects) *)
  let mk () =
    parse
      {|
define internal @helper() i32 {
entry:
  ret i32 1
}
define external @user_XX() i32 {
entry:
  %r = call i32 @helper()
  ret i32 %r
}
|}
  in
  let o1 = Link.Objfile.of_module (mk ()) in
  let m2 = mk () in
  (match Ir.Modul.find m2 "user_XX" with
  | Some (Ir.Modul.Fun f) -> Ir.Func.(ignore f.name)
  | _ -> ());
  Alcotest.(check bool) "collision detected" true
    (try
       ignore (Link.Incremental.link [ o1; Link.Objfile.of_module m2 ]);
       false
     with Link.Linker.Duplicate_symbol { symbol = "helper"; _ } -> true)

let test_linker_data_relocation_content () =
  let m =
    parse
      {|
@a = internal constant [i32 x 42]
@ptrs = internal constant [ptr x @a, @a]
define external @f() i32 {
entry:
  %slot = gep ptr @ptrs, i64 1, size 8
  %p = load ptr, ptr %slot
  %v = load i32, ptr %p
  ret i32 %v
}
|}
  in
  let vm = vm_of_module m in
  Alcotest.(check int64) "through reloc" 42L (Vm.call vm "f" [])

(* ---------------- Odin lifecycle edges ---------------- *)

let test_session_refresh_without_changes_is_noop () =
  let m = compile "int main(int x) { return x + 1; }" in
  let session =
    Odin.Session.create ~keep:[ "main" ] ~runtime_globals:[ Odin.Cov.runtime_global m ] m
  in
  let _ = Odin.Cov.setup session in
  ignore (Odin.Session.build session);
  Alcotest.(check bool) "noop refresh" true (Odin.Session.refresh session = None)

let test_session_disable_reenable_probe () =
  let m = compile "int main(int x) { return x * 2; }" in
  let session =
    Odin.Session.create ~keep:[ "main" ] ~runtime_globals:[ Odin.Cov.runtime_global m ] m
  in
  let cov = Odin.Cov.setup session in
  ignore (Odin.Session.build session);
  let probe = List.hd (Instr.Manager.to_list session.Odin.Session.manager) in
  (* disable: counter goes quiet *)
  Instr.Manager.set_enabled session.Odin.Session.manager probe false;
  ignore (Odin.Session.refresh session);
  let vm = Vm.create (Odin.Session.executable session) in
  ignore (Vm.call vm "main" [ 1L ]);
  Alcotest.(check int) "disabled probe silent" 0 (Odin.Cov.read_counter vm probe.Instr.Probe.pid);
  (* re-enable: counter comes back — flexibility the paper claims *)
  Instr.Manager.set_enabled session.Odin.Session.manager probe true;
  ignore (Odin.Session.refresh session);
  let vm2 = Vm.create (Odin.Session.executable session) in
  ignore (Vm.call vm2 "main" [ 1L ]);
  Alcotest.(check bool) "re-enabled probe fires" true
    (Odin.Cov.read_counter vm2 probe.Instr.Probe.pid > 0);
  ignore cov

let test_session_many_rebuild_cycles () =
  (* repeated prune/rebuild cycles stay consistent (cache + linker reuse) *)
  let m =
    compile
      {|
int path_a(int x) { return x * 3 + 1; }
int path_b(int x) { return x * 5 + 2; }
int path_c(int x) { return x * 7 + 3; }
int main(int x) {
  if (x < 10) return path_a(x);
  if (x < 100) return path_b(x);
  return path_c(x);
}
|}
  in
  let reference = Ir.Clone.clone_module m in
  let session =
    Odin.Session.create ~mode:Odin.Partition.Max ~keep:[ "main" ]
      ~runtime_globals:[ Odin.Cov.runtime_global m ] m
  in
  let cov = Odin.Cov.setup session in
  ignore (Odin.Session.build session);
  let st = Ir.Interp.create reference in
  List.iter
    (fun x ->
      let vm = Vm.create (Odin.Session.executable session) in
      let got = Vm.call vm "main" [ x ] in
      let expected = Ir.Interp.run st "main" [ x ] in
      Alcotest.(check int64) (Printf.sprintf "main(%Ld)" x) expected got;
      ignore (Odin.Cov.harvest cov vm);
      if Odin.Cov.prune_fired cov > 0 then ignore (Odin.Session.refresh session))
    [ 1L; 5L; 50L; 99L; 500L; 2L; 60L; 1000L ]

let test_probe_manager_remove_unknown_is_safe () =
  let mgr = Instr.Manager.create () in
  let p =
    Instr.Manager.add mgr ~target:"f"
      (Instr.Probe.Cov { cov_block = "entry"; cov_hits = 0 })
  in
  Instr.Manager.remove mgr p;
  Instr.Manager.remove mgr p;
  Alcotest.(check int) "empty" 0 (Instr.Manager.count mgr);
  Alcotest.(check bool) "still dirty (removed target)" true
    (Instr.Manager.has_changes mgr)

(* ---------------- fault tolerance: transactional rebuilds ---------------- *)

module Fault = Support.Fault

let fault_src =
  {|
int path_a(int x) { return x * 3 + 1; }
int path_b(int x) { return x * 5 + 2; }
int path_c(int x) { return x * 7 + 3; }
int main(int x) {
  if (x < 10) return path_a(x);
  if (x < 100) return path_b(x);
  return path_c(x);
}
|}

let make_faulty_session ?pool ?cache_dir ?max_retries ?job_timeout () =
  let m = compile fault_src in
  let reference = Ir.Clone.clone_module m in
  let session =
    (* tier pinned off: the matrix pins which fault sites fire on the
       optimizing pipeline, and tier-0 legitimately never visits
       opt.pipeline (the torn tier-swap row lives in test_tier) *)
    Odin.Session.create ~mode:Odin.Partition.Max ~keep:[ "main" ]
      ~runtime_globals:[ Odin.Cov.runtime_global m ]
      ?pool ?cache_dir ?max_retries ?job_timeout ~tiered:false m
  in
  let _cov = Odin.Cov.setup session in
  (session, reference)

(* The paper-level invariant under fault injection: whatever a rebuild
   reported, the session's executable computes the same results as the
   pristine interpreter. *)
let check_differential session reference =
  let st = Ir.Interp.create reference in
  List.iter
    (fun x ->
      let vm = Vm.create (Odin.Session.executable session) in
      Alcotest.(check int64)
        (Printf.sprintf "VM = interp on main(%Ld)" x)
        (Ir.Interp.run st "main" [ x ])
        (Vm.call vm "main" [ x ]))
    [ 1L; 5L; 50L; 99L; 500L ]

(* Disable one active probe: marks exactly one fragment for recompile. *)
let toggle_probe session =
  let mgr = session.Odin.Session.manager in
  match List.filter (fun p -> p.Instr.Probe.enabled) (Instr.Manager.to_list mgr) with
  | [] -> Alcotest.fail "no enabled probe to toggle"
  | p :: _ -> Instr.Manager.set_enabled mgr p false

let outcome_to_string = function
  | Odin.Session.Ok -> "Ok"
  | Odin.Session.Degraded fids ->
    Printf.sprintf "Degraded [%s]" (String.concat ";" (List.map string_of_int fids))
  | Odin.Session.Rolled_back e ->
    "Rolled_back: " ^ Odin.Session.build_error_to_string e

type expect = EOk | EDegraded | ERolled_back

let expect_to_string = function
  | EOk -> "Ok"
  | EDegraded -> "Degraded"
  | ERolled_back -> "Rolled_back"

(* One matrix cell: clean build, install the plan, toggle a probe,
   refresh, check the outcome class, the differential invariant, and
   that the session heals back to a clean Ok once the plan is gone. *)
let run_matrix_case ?cache_dir ?job_timeout ~plan expected =
  let session, reference = make_faulty_session ?cache_dir ?job_timeout () in
  ignore (Odin.Session.build session);
  check_differential session reference;
  toggle_probe session;
  let outcome =
    Fault.with_plan plan (fun () ->
        match Odin.Session.try_refresh session with
        | Some o -> o
        | None -> Alcotest.fail "refresh had nothing to do")
  in
  (match (expected, outcome) with
  | EOk, Odin.Session.Ok -> ()
  | EDegraded, Odin.Session.Degraded (_ :: _) -> ()
  | ERolled_back, Odin.Session.Rolled_back _ -> ()
  | _ ->
    Alcotest.failf "expected %s, got %s" (expect_to_string expected)
      (outcome_to_string outcome));
  (* never a torn session: a consistent executable is always served *)
  check_differential session reference;
  (* with faults gone, the next refresh re-heals (or there is nothing
     left to do) and no fragment stays degraded *)
  (match Odin.Session.try_refresh session with
  | None -> ()
  | Some Odin.Session.Ok -> ()
  | Some o -> Alcotest.failf "heal refresh: %s" (outcome_to_string o));
  Alcotest.(check (list int)) "no degraded fragments left" []
    (Odin.Session.degraded_fragments session);
  check_differential session reference

(* Every fault site × {raise, transient, torn}: torn only bites at
   sites that corrupt their own output (store.write quarantines and
   recompiles -> Ok; link.patch corrupts an in-place patch, which the
   incremental linker's verify-after-patch pass must detect and turn
   into a rollback, exactly like a full-link failure); elsewhere a torn
   rule never fires and the refresh must stay Ok. *)
let test_fault_matrix () =
  let store_dir site kind =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "odin-matrix-%s-%s" site (Fault.kind_to_string kind))
    in
    Support.Objstore.rm_rf dir;
    dir
  in
  let matrix =
    (* (site, needs_store, expected for Raise / Transient / Torn) *)
    [
      ("session.materialize", false, EDegraded, EDegraded, EOk);
      ("opt.pipeline", false, EDegraded, EDegraded, EOk);
      ("codegen.emit", false, EDegraded, EDegraded, EOk);
      ("cache.get", false, EOk, EOk, EOk);
      ("link", false, ERolled_back, ERolled_back, EOk);
      ("link.patch", false, ERolled_back, ERolled_back, ERolled_back);
      ("store.read", true, EOk, EOk, EOk);
      ("store.write", true, EOk, EOk, EOk);
    ]
  in
  List.iter
    (fun (site, needs_store, exp_raise, exp_transient, exp_torn) ->
      List.iter
        (fun (kind, expected) ->
          let cache_dir = if needs_store then Some (store_dir site kind) else None in
          run_matrix_case ?cache_dir
            ~plan:(Fault.plan ~seed:1 [ Fault.rule site kind ])
            expected;
          Option.iter Support.Objstore.rm_rf cache_dir)
        [
          (Fault.Raise, exp_raise);
          (Fault.Transient, exp_transient);
          (Fault.Torn, exp_torn);
        ])
    matrix

(* A single transient fault recovers via bounded retry: Ok, not
   Degraded — and the retry is visible in the session counters. *)
let test_fault_transient_retry_recovers () =
  let session, reference = make_faulty_session () in
  ignore (Odin.Session.build session);
  toggle_probe session;
  let outcome =
    Fault.with_plan
      (Fault.plan [ Fault.rule ~trigger:(Fault.Nth 1) "opt.pipeline" Fault.Transient ])
      (fun () -> Option.get (Odin.Session.try_refresh session))
  in
  Alcotest.(check string) "retry recovered" "Ok" (outcome_to_string outcome);
  Alcotest.(check bool) "retry counted" true
    (Telemetry.Recorder.value
       (Some session.Odin.Session.telemetry)
       "session.fragment_retries"
     >= 1);
  check_differential session reference

(* Link failure rolls the whole refresh back: previous executable stays
   live, the probe change is retained and applies on the next refresh. *)
let test_fault_link_rollback_then_clean_refresh () =
  let session, reference = make_faulty_session () in
  ignore (Odin.Session.build session);
  let rebuilds () =
    Telemetry.Recorder.value
      (Some session.Odin.Session.telemetry)
      "session.rebuilds"
  in
  let rebuilds_before = rebuilds () in
  toggle_probe session;
  (match
     Fault.with_plan
       (Fault.plan [ Fault.rule ~trigger:(Fault.Nth 1) "link" Fault.Raise ])
       (fun () -> Option.get (Odin.Session.try_refresh session))
   with
  | Odin.Session.Rolled_back err ->
    Alcotest.(check string) "link phase" "link"
      (Odin.Session.phase_to_string err.Odin.Session.err_phase);
    Alcotest.(check bool) "readable diagnostic" true
      (String.length (Odin.Session.build_error_to_string err) > 0)
  | o -> Alcotest.failf "expected rollback, got %s" (outcome_to_string o));
  Alcotest.(check int) "rollback counted" 1 (Odin.Session.rollbacks session);
  Alcotest.(check int) "no rebuild counted" rebuilds_before (rebuilds ());
  (* previous executable still serves *)
  check_differential session reference;
  (* the pending change survived the rollback and applies cleanly now *)
  (match Odin.Session.try_refresh session with
  | Some Odin.Session.Ok -> ()
  | Some o -> Alcotest.failf "clean refresh: %s" (outcome_to_string o)
  | None -> Alcotest.fail "probe change was lost by the rollback");
  check_differential session reference

(* refresh raises the structured Build_error on rollback via the compat
   wrapper, and patch-stage failures carry the Patch phase. *)
let test_fault_structured_error_phases () =
  let session, _reference = make_faulty_session () in
  ignore (Odin.Session.build session);
  Odin.Session.add_patcher session (fun _ -> failwith "patcher exploded");
  toggle_probe session;
  (match Odin.Session.try_refresh session with
  | Some (Odin.Session.Rolled_back err) ->
    Alcotest.(check string) "patch phase" "patch"
      (Odin.Session.phase_to_string err.Odin.Session.err_phase);
    let msg = Odin.Session.build_error_to_string err in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "mentions phase" true (contains msg "phase `patch'");
    Alcotest.(check bool) "mentions cause" true (contains msg "patcher exploded")
  | Some o -> Alcotest.failf "expected rollback, got %s" (outcome_to_string o)
  | None -> Alcotest.fail "refresh had nothing to do");
  (* the raising wrapper converts the same outcome into an exception *)
  Alcotest.(check bool) "refresh raises Build_error" true
    (try
       ignore (Odin.Session.refresh session);
       false
     with Odin.Session.Build_error _ -> true)

(* The cooperative watchdog: a delay fault pushes the fragment past its
   job timeout; the fragment degrades instead of stalling the rebuild. *)
let test_fault_job_timeout_degrades () =
  let session, reference = make_faulty_session ~job_timeout:1.0 () in
  ignore (Odin.Session.build session);
  toggle_probe session;
  let outcome =
    Fault.with_plan
      (Fault.plan [ Fault.rule "opt.pipeline" (Fault.Delay 10.) ])
      (fun () -> Option.get (Odin.Session.try_refresh session))
  in
  (match outcome with
  | Odin.Session.Degraded (_ :: _) -> ()
  | o -> Alcotest.failf "expected Degraded, got %s" (outcome_to_string o));
  check_differential session reference;
  (* heals once the fault plan is gone *)
  (match Odin.Session.try_refresh session with
  | Some Odin.Session.Ok | None -> ()
  | Some o -> Alcotest.failf "heal: %s" (outcome_to_string o));
  Alcotest.(check (list int)) "healed" [] (Odin.Session.degraded_fragments session)

(* Warm restart through the persistent store: a second session over the
   same cache dir recompiles 0 fragments; a corrupted entry is detected,
   quarantined and silently recompiled. *)
let test_store_warm_restart_and_corruption () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "odin-warm-restart-test"
  in
  Support.Objstore.rm_rf dir;
  Fun.protect ~finally:(fun () -> Support.Objstore.rm_rf dir) @@ fun () ->
  let session1, reference = make_faulty_session ~cache_dir:dir () in
  let ev1 = Odin.Session.build session1 in
  Alcotest.(check int) "cold build hits nothing" 0 ev1.Odin.Session.ev_cache_hits;
  let nfrags = List.length ev1.Odin.Session.ev_fragments in
  Alcotest.(check bool) "multi-fragment" true (nfrags > 1);
  (* fresh process, same store: everything served from disk *)
  let session2, _ = make_faulty_session ~cache_dir:dir () in
  let ev2 = Odin.Session.build session2 in
  Alcotest.(check int) "warm restart recompiles 0 fragments" nfrags
    ev2.Odin.Session.ev_cache_hits;
  check_differential session2 reference;
  (let st = Option.get (Odin.Session.store_stats session2) in
   Alcotest.(check int) "all from store" nfrags st.Support.Objstore.st_hits);
  (* corrupt one entry on disk: detected, quarantined, recompiled *)
  let store =
    Support.Objstore.open_store ~version:Odin.Session.store_format_version dir
  in
  let entries =
    let objects = Filename.concat dir "objects" in
    Array.to_list (Sys.readdir objects)
    |> List.concat_map (fun shard ->
           let d = Filename.concat objects shard in
           List.map (fun f -> Filename.concat d f) (Array.to_list (Sys.readdir d)))
  in
  Alcotest.(check int) "one entry per fragment" nfrags (List.length entries);
  Support.Objstore.write_file (List.hd entries) "garbage, not an entry";
  ignore store;
  let session3, _ = make_faulty_session ~cache_dir:dir () in
  let ev3 = Odin.Session.build session3 in
  Alcotest.(check int) "corrupt entry recompiled" (nfrags - 1)
    ev3.Odin.Session.ev_cache_hits;
  check_differential session3 reference;
  let st3 = Option.get (Odin.Session.store_stats session3) in
  Alcotest.(check int) "quarantined" 1 st3.Support.Objstore.st_quarantined

(* The matrix invariant holds for any pool size: repeat a degrading and
   a rolling-back cell on a 4-domain pool. *)
let test_fault_matrix_parallel_pool () =
  let pool = Support.Pool.create ~size:4 () in
  Fun.protect ~finally:(fun () -> Support.Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun (site, expected) ->
      let session, reference = make_faulty_session ~pool () in
      ignore (Odin.Session.build session);
      toggle_probe session;
      let outcome =
        Fault.with_plan (Fault.plan [ Fault.rule site Fault.Raise ]) (fun () ->
            Option.get (Odin.Session.try_refresh session))
      in
      (match (expected, outcome) with
      | EDegraded, Odin.Session.Degraded (_ :: _) -> ()
      | ERolled_back, Odin.Session.Rolled_back _ -> ()
      | _, o ->
        Alcotest.failf "pool=4 %s: expected %s, got %s" site
          (expect_to_string expected) (outcome_to_string o));
      check_differential session reference)
    [ ("opt.pipeline", EDegraded); ("link", ERolled_back) ]

(* ---------------- cross-layer properties ---------------- *)

let prop_workload_fragments_equal_whole =
  QCheck2.Test.make
    ~name:"fragmented build = whole-program build on workload inputs" ~count:6
    QCheck2.Gen.(pair (oneofl [ "woff2"; "lcms"; "proj4"; "json"; "sqlite" ]) (int_bound 10000))
    (fun (name, seed) ->
      let profile = Workloads.Profile.find_exn name in
      let m = Workloads.Generate.compile profile in
      let plain =
        Baselines.Plain.build ~keep:[ "target_main" ]
          ~host:Workloads.Generate.host_functions m
      in
      let session =
        Odin.Session.create ~mode:Odin.Partition.Max ~keep:[ "target_main" ]
          ~host:Workloads.Generate.host_functions (Ir.Clone.clone_module m)
      in
      ignore (Odin.Session.build session);
      let fragged = Odin.Session.executable session in
      let rng = Support.Rng.create seed in
      let input = String.init 40 (fun _ -> Char.chr (Support.Rng.int rng 256)) in
      let run exe =
        let vm = Vm.create exe in
        List.iter (fun n -> Vm.register_host vm n (fun _ -> 0L))
          Workloads.Generate.host_functions;
        let addr = Vm.write_buffer vm input in
        Vm.call vm "target_main" [ addr; Int64.of_int (String.length input) ]
      in
      run plain = run fragged)

let prop_switch_differential =
  QCheck2.Test.make ~name:"switch-heavy functions: interp = VM (O0/O2)" ~count:20
    QCheck2.Gen.(pair (int_range 2 12) (int_range (-20) 40))
    (fun (ncases, x) ->
      let cases =
        String.concat "\n"
          (List.init ncases (fun i ->
               Printf.sprintf "    case %d: acc = acc * %d + %d; break;" i (i + 2) i))
      in
      let src =
        Printf.sprintf
          {|
int f(int x) {
  int acc = 1;
  for (int i = 0; i < 5; i++) {
    switch ((x + i) %% %d) {
%s
      default: acc = acc - 1;
    }
  }
  return acc;
}
|}
          (ncases + 2) cases
      in
      let m1 = compile src in
      let m2 = compile src in
      ignore (Opt.Pipeline.run ~keep:[ "f" ] m2);
      let expected = interp m1 "f" [ Int64.of_int x ] in
      let vm0 = vm_of_module (compile src) in
      let vm2 = vm_of_module m2 in
      Vm.call vm0 "f" [ Int64.of_int x ] = expected
      && Vm.call vm2 "f" [ Int64.of_int x ] = expected)

let prop_memory_differential =
  QCheck2.Test.make ~name:"array-churn functions: interp = VM" ~count:20
    QCheck2.Gen.(pair (int_range 1 15) (int_range 0 255))
    (fun (n, b) ->
      let src =
        Printf.sprintf
          {|
int f(int n, int seed) {
  char buf[32];
  for (int i = 0; i < 32; i++) buf[i] = (seed + i * 7) & 255;
  int acc = 0;
  for (int i = 0; i < %d; i++) {
    buf[(i * 5) %% 32] = buf[i] ^ i;
    acc += buf[(i * 3) %% 32];
  }
  return acc;
}
|}
          (n * 2)
      in
      let m = compile src in
      let expected = interp m "f" [ Int64.of_int n; Int64.of_int b ] in
      let vm = vm_of_module (compile src) in
      Vm.call vm "f" [ Int64.of_int n; Int64.of_int b ] = expected)

let () =
  Alcotest.run "robustness"
    [
      ( "ir-edges",
        [
          Alcotest.test_case "escape roundtrip" `Quick test_print_escapes_roundtrip;
          Alcotest.test_case "large constants" `Quick test_parse_negative_and_large_constants;
          Alcotest.test_case "parse rejects garbage" `Quick test_parse_rejects_garbage;
          Alcotest.test_case "phi type mismatch" `Quick test_verify_phi_type_mismatch;
          Alcotest.test_case "gep arithmetic" `Quick test_interp_ptr_arithmetic_via_gep;
          Alcotest.test_case "oob traps" `Quick test_interp_out_of_bounds_traps;
        ] );
      ( "frontend-torture",
        [
          Alcotest.test_case "deep nesting" `Quick test_minic_deep_nesting;
          Alcotest.test_case "comments" `Quick test_minic_comment_only_bodies;
          Alcotest.test_case "precedence matrix" `Quick test_minic_operator_precedence_matrix;
          Alcotest.test_case "shadowing" `Quick test_minic_shadowing_scopes;
          Alcotest.test_case "global vs param" `Quick test_minic_global_shadowed_by_local;
          Alcotest.test_case "string concat" `Quick test_minic_string_concat;
          Alcotest.test_case "do-while once" `Quick test_minic_do_while_executes_once;
          Alcotest.test_case "void function" `Quick test_minic_empty_function_void;
          Alcotest.test_case "void misuse" `Quick test_minic_typecheck_void_misuse;
        ] );
      ( "codegen-stress",
        [
          Alcotest.test_case "spill pressure" `Quick test_codegen_spill_pressure;
          Alcotest.test_case "spill pressure O2" `Quick test_codegen_spill_pressure_optimized;
          Alcotest.test_case "deep recursion" `Quick test_codegen_deep_recursion;
          Alcotest.test_case "stack overflow faults" `Quick test_codegen_stack_overflow_faults;
          Alcotest.test_case "call depth boundary" `Quick test_codegen_call_depth_boundary;
          Alcotest.test_case "100-case switch" `Quick test_codegen_big_switch_jump_table;
          Alcotest.test_case "six arguments" `Quick test_codegen_six_arguments;
          Alcotest.test_case "mutual recursion" `Quick test_codegen_mutual_recursion;
          Alcotest.test_case "division fault" `Quick test_vm_division_by_zero_faults;
        ] );
      ( "linker-edges",
        [
          Alcotest.test_case "alias cross-object" `Quick test_linker_alias_called_cross_object;
          Alcotest.test_case "internal name collision" `Quick
            test_linker_internal_symbols_can_share_names_across_objects;
          Alcotest.test_case "data relocation" `Quick test_linker_data_relocation_content;
        ] );
      ( "odin-lifecycle",
        [
          Alcotest.test_case "refresh noop" `Quick test_session_refresh_without_changes_is_noop;
          Alcotest.test_case "disable/re-enable probe" `Quick test_session_disable_reenable_probe;
          Alcotest.test_case "many rebuild cycles" `Quick test_session_many_rebuild_cycles;
          Alcotest.test_case "double remove safe" `Quick test_probe_manager_remove_unknown_is_safe;
        ] );
      ( "fault-tolerance",
        [
          Alcotest.test_case "site x kind matrix" `Slow test_fault_matrix;
          Alcotest.test_case "transient retry recovers" `Quick
            test_fault_transient_retry_recovers;
          Alcotest.test_case "link rollback + clean refresh" `Quick
            test_fault_link_rollback_then_clean_refresh;
          Alcotest.test_case "structured error phases" `Quick
            test_fault_structured_error_phases;
          Alcotest.test_case "job timeout degrades" `Quick
            test_fault_job_timeout_degrades;
          Alcotest.test_case "warm restart + corruption" `Quick
            test_store_warm_restart_and_corruption;
          Alcotest.test_case "matrix on 4-domain pool" `Quick
            test_fault_matrix_parallel_pool;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_workload_fragments_equal_whole;
          QCheck_alcotest.to_alcotest prop_switch_differential;
          QCheck_alcotest.to_alcotest prop_memory_differential;
        ] );
    ]
