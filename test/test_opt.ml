(* Tests for the optimization passes, including the paper's two case
   studies: the islower range fold (Figure 2) and printf->puts plus dead
   argument elimination (Figure 4). Every transform is additionally
   validated semantically: the module must verify and compute the same
   results before and after. *)

let parse = Ir.Parse.module_of_string

let run_pass pass m =
  let ctx = Opt.Pass.make_ctx m in
  let changed = pass.Opt.Pass.run ctx in
  Ir.Verify.run_exn m;
  changed

let interp m fname args =
  let st = Ir.Interp.create m in
  Ir.Interp.run st fname args

(* Check a pass preserves a function's results over sample inputs. *)
let check_preserves pass src fname inputs =
  let m1 = parse src in
  let m2 = parse src in
  ignore (run_pass pass m2);
  List.iter
    (fun args ->
      Alcotest.(check int64)
        (Printf.sprintf "%s preserved" fname)
        (interp m1 fname args) (interp m2 fname args))
    inputs

(* ---------------- mem2reg ---------------- *)

let mem2reg_src =
  {|
define external @f(i32 %x) i32 {
entry:
  %a = alloca i32, 1
  store i32 %x, ptr %a
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %pos, label %end
pos:
  %v = load i32, ptr %a
  %v2 = mul i32 %v, 2
  store i32 %v2, ptr %a
  br label %end
end:
  %r = load i32, ptr %a
  ret i32 %r
}
|}

let test_mem2reg_removes_allocas () =
  let m = parse mem2reg_src in
  ignore (run_pass Opt.Mem2reg.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  let has_alloca = ref false in
  Ir.Func.iter_insns
    (fun i ->
      match i.Ir.Ins.kind with Ir.Ins.Alloca _ -> has_alloca := true | _ -> ())
    f;
  Alcotest.(check bool) "no allocas" false !has_alloca

let test_mem2reg_preserves_semantics () =
  check_preserves Opt.Mem2reg.pass mem2reg_src "f" [ [ 5L ]; [ -5L ]; [ 0L ] ]

let test_mem2reg_keeps_escaping_alloca () =
  let src =
    {|
declare external @sink(ptr %p) void
define external @f() i32 {
entry:
  %a = alloca i32, 1
  store i32 1, ptr %a
  call void @sink(ptr %a)
  %r = load i32, ptr %a
  ret i32 %r
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Mem2reg.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  let has_alloca = ref false in
  Ir.Func.iter_insns
    (fun i ->
      match i.Ir.Ins.kind with Ir.Ins.Alloca _ -> has_alloca := true | _ -> ())
    f;
  Alcotest.(check bool) "escaping alloca kept" true !has_alloca

(* ---------------- constant folding ---------------- *)

let test_constfold_folds () =
  let src =
    {|
define external @f() i32 {
entry:
  %a = add i32 2, 3
  %b = mul i32 %a, 4
  ret i32 %b
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Constfold.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "all folded" 0 (Ir.Func.insn_count f);
  Alcotest.(check int64) "value" 20L (interp m "f" [])

let test_constfold_branch () =
  let src =
    {|
define external @f() i32 {
entry:
  %c = icmp slt i32 1, 2
  br i1 %c, label %a, label %b
a:
  ret i32 10
b:
  ret i32 20
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Constfold.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "dead branch removed" 2 (Ir.Func.block_count f);
  Alcotest.(check int64) "value" 10L (interp m "f" [])

let test_constfold_keeps_volatile () =
  let src =
    {|
define external @f() i32 {
entry:
  %a = volatile add i32 2, 3
  ret i32 %a
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Constfold.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "volatile kept" 1 (Ir.Func.insn_count f)

(* ---------------- instcombine: identities ---------------- *)

let test_instcombine_identities () =
  let src =
    {|
define external @f(i32 %x) i32 {
entry:
  %a = add i32 %x, 0
  %b = mul i32 %a, 1
  %c = or i32 %b, 0
  ret i32 %c
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Instcombine.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "identities removed" 0 (Ir.Func.insn_count f)

let test_instcombine_strength_reduction () =
  let src =
    {|
define external @f(i32 %x) i32 {
entry:
  %a = mul i32 %x, 8
  ret i32 %a
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Instcombine.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  let is_shl = ref false in
  Ir.Func.iter_insns
    (fun i ->
      match i.Ir.Ins.kind with
      | Ir.Ins.Binop (Ir.Ins.Shl, _, _) -> is_shl := true
      | _ -> ())
    f;
  Alcotest.(check bool) "mul became shl" true !is_shl;
  Alcotest.(check int64) "semantics" 40L (interp m "f" [ 5L ])

(* ---------------- instcombine: Figure 2 range fold ---------------- *)

let islower_ir =
  {|
define external @islower(i8 %chr) i1 {
test_lb:
  %cmp1 = icmp sge i8 %chr, 97
  br i1 %cmp1, label %test_ub, label %end
test_ub:
  %cmp2 = icmp sle i8 %chr, 122
  br label %end
end:
  %r = phi i1 [ 0, %test_lb ], [ %cmp2, %test_ub ]
  ret i1 %r
}
|}

let test_range_fold_fires () =
  let m = parse islower_ir in
  ignore (run_pass Opt.Instcombine.pass m);
  ignore (run_pass Opt.Simplifycfg.pass m);
  let f = Option.get (Ir.Modul.find_func m "islower") in
  (* paper: "After optimization, there remains one basic block only" *)
  Alcotest.(check int) "single block" 1 (Ir.Func.block_count f);
  let has_ult = ref false and has_add = ref false in
  Ir.Func.iter_insns
    (fun i ->
      match i.Ir.Ins.kind with
      | Ir.Ins.Icmp (Ir.Ins.Ult, _, Ir.Ins.Const (_, 26L)) -> has_ult := true
      | Ir.Ins.Binop (Ir.Ins.Add, _, Ir.Ins.Const (_, -97L)) -> has_add := true
      | _ -> ())
    f;
  Alcotest.(check bool) "icmp ult 26 present" true !has_ult;
  Alcotest.(check bool) "add -97 present" true !has_add

let test_range_fold_preserves_semantics () =
  let inputs = List.init 256 (fun i -> [ Int64.of_int (i - 128) ]) in
  check_preserves Opt.Instcombine.pass islower_ir "islower" inputs

let test_range_fold_blocked_by_probe () =
  (* a volatile probe in the upper-bound block pins the CFG: coverage
     instrumentation applied *before* optimization survives (the paper's
     instrument-first correctness argument) *)
  let src =
    {|
@counters = external global zeroinitializer 8

define external @islower(i8 %chr) i1 {
test_lb:
  %cmp1 = icmp sge i8 %chr, 97
  br i1 %cmp1, label %test_ub, label %end
test_ub:
  %old = volatile load i8, ptr @counters
  %new = volatile add i8 %old, 1
  volatile store i8 %new, ptr @counters
  %cmp2 = icmp sle i8 %chr, 122
  br label %end
end:
  %r = phi i1 [ 0, %test_lb ], [ %cmp2, %test_ub ]
  ret i1 %r
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Instcombine.pass m);
  let f = Option.get (Ir.Modul.find_func m "islower") in
  Alcotest.(check int) "blocks kept" 3 (Ir.Func.block_count f)

(* ---------------- instcombine: printf -> puts (Figure 4) ------------- *)

let fig4_src =
  {|
@str = internal constant c"hello\0A\00"

declare external @printf(ptr %fmt) i32

define internal void @foo(i32 %unused) {
entry:
  %r = call i32 @printf(ptr @str)
  ret void
}

define external @main() i32 {
entry:
  call void @foo(i32 1)
  ret i32 0
}
|}

let test_printf_to_puts () =
  let m = parse fig4_src in
  let ctx = Opt.Pass.make_ctx ~trial:true m in
  ignore (Opt.Instcombine.pass.Opt.Pass.run ctx);
  Ir.Verify.run_exn m;
  let foo = Option.get (Ir.Modul.find_func m "foo") in
  let callee = ref "" in
  Ir.Func.iter_insns
    (fun i ->
      match i.Ir.Ins.kind with
      | Ir.Ins.Call (Ir.Ins.Direct n, _) -> callee := n
      | _ -> ())
    foo;
  Alcotest.(check string) "rewritten to puts" "puts" !callee;
  (* and the trial run logged the copy-on-use requirement *)
  let logged =
    List.exists
      (function
        | Opt.Pass.Copy_on_use { user = "foo"; sym = "str"; _ } -> true
        | _ -> false)
      ctx.Opt.Pass.reqs
  in
  Alcotest.(check bool) "copy-on-use logged" true logged

let test_dead_arg_elim_fig4 () =
  let m = parse fig4_src in
  let ctx = Opt.Pass.make_ctx ~trial:true m in
  ignore (Opt.Dead_arg_elim.pass.Opt.Pass.run ctx);
  Ir.Verify.run_exn m;
  let foo = Option.get (Ir.Modul.find_func m "foo") in
  Alcotest.(check int) "param removed" 0 (List.length foo.Ir.Func.params);
  let main = Option.get (Ir.Modul.find_func m "main") in
  let args = ref [ Ir.Ins.Undef Ir.Types.Void ] in
  Ir.Func.iter_insns
    (fun i ->
      match i.Ir.Ins.kind with
      | Ir.Ins.Call (Ir.Ins.Direct "foo", a) -> args := a
      | _ -> ())
    main;
  Alcotest.(check int) "call site updated" 0 (List.length !args);
  (* the bond between foo and its caller was logged *)
  let logged =
    List.exists
      (function
        | Opt.Pass.Bond { a = "foo"; b = "main"; _ }
        | Opt.Pass.Bond { a = "main"; b = "foo"; _ } ->
          true
        | _ -> false)
      ctx.Opt.Pass.reqs
  in
  Alcotest.(check bool) "bond logged" true logged

let test_dead_arg_elim_skips_external () =
  let src =
    {|
define external @f(i32 %unused) i32 {
entry:
  ret i32 0
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Dead_arg_elim.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "external signature kept" 1 (List.length f.Ir.Func.params)

(* ---------------- simplifycfg ---------------- *)

let test_simplifycfg_merges () =
  let src =
    {|
define external @f(i32 %x) i32 {
entry:
  %a = add i32 %x, 1
  br label %next
next:
  %b = mul i32 %a, 2
  ret i32 %b
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Simplifycfg.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "merged" 1 (Ir.Func.block_count f);
  Alcotest.(check int64) "semantics" 8L (interp m "f" [ 3L ])

let test_simplifycfg_keeps_blockaddr_target () =
  let src =
    {|
@tbl = internal constant [ptr x @f]

define external @f(i32 %x) i32 {
entry:
  %p = gep ptr blockaddress(@f, %next), i64 0, size 1
  br label %next
next:
  ret i32 1
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Simplifycfg.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check bool) "address-taken block survives" true
    (Ir.Func.find_block f "next" <> None)

(* ---------------- dce ---------------- *)

let test_dce_removes_dead_code () =
  let src =
    {|
define external @f(i32 %x) i32 {
entry:
  %dead = mul i32 %x, 100
  %live = add i32 %x, 1
  ret i32 %live
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Dce.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "dead removed" 1 (Ir.Func.insn_count f)

let test_dce_keeps_probes () =
  let src =
    {|
@c = external global zeroinitializer 8
define external @f(i32 %x) i32 {
entry:
  volatile store i8 1, ptr @c
  ret i32 %x
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Dce.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "probe kept" 1 (Ir.Func.insn_count f)

let test_global_dce () =
  let src =
    {|
@dead_str = internal constant c"unused\00"
define external @main() i32 {
entry:
  ret i32 0
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Dce.pass m);
  Alcotest.(check bool) "dead internal constant removed" false
    (Ir.Modul.mem m "dead_str")

(* ---------------- gvn ---------------- *)

let test_gvn_cse () =
  let src =
    {|
define external @f(i32 %x, i32 %y) i32 {
entry:
  %a = add i32 %x, %y
  %b = add i32 %x, %y
  %c = add i32 %a, %b
  ret i32 %c
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Gvn.pass m);
  ignore (run_pass Opt.Dce.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "one add eliminated" 2 (Ir.Func.insn_count f);
  Alcotest.(check int64) "semantics" 14L (interp m "f" [ 3L; 4L ])

let test_gvn_commutative () =
  let src =
    {|
define external @f(i32 %x, i32 %y) i32 {
entry:
  %a = add i32 %x, %y
  %b = add i32 %y, %x
  %c = sub i32 %a, %b
  ret i32 %c
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Gvn.pass m);
  ignore (run_pass Opt.Constfold.pass m);
  ignore (run_pass Opt.Dce.pass m);
  Alcotest.(check int64) "x+y == y+x" 0L (interp m "f" [ 3L; 4L ])

let test_gvn_load_invalidation () =
  let src =
    {|
@g = external global [i32 x 5]
define external @f() i32 {
entry:
  %a = load i32, ptr @g
  store i32 7, ptr @g
  %b = load i32, ptr @g
  %c = add i32 %a, %b
  ret i32 %c
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Gvn.pass m);
  Alcotest.(check int64) "store invalidates load CSE" 12L (interp m "f" [])

(* ---------------- inline ---------------- *)

let test_inline_small_function () =
  let src =
    {|
define internal @helper(i32 %x) i32 {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}
define external @main(i32 %x) i32 {
entry:
  %a = call i32 @helper(i32 %x)
  %b = call i32 @helper(i32 %a)
  ret i32 %b
}
|}
  in
  let m = parse src in
  let ctx = Opt.Pass.make_ctx ~trial:true m in
  ignore (Opt.Inline.pass.Opt.Pass.run ctx);
  Ir.Verify.run_exn m;
  let main = Option.get (Ir.Modul.find_func m "main") in
  let calls = ref 0 in
  Ir.Func.iter_insns
    (fun i -> match i.Ir.Ins.kind with Ir.Ins.Call _ -> incr calls | _ -> ())
    main;
  Alcotest.(check int) "no calls left" 0 !calls;
  Alcotest.(check int64) "semantics" 7L (interp m "main" [ 5L ]);
  let logged =
    List.exists
      (function
        | Opt.Pass.Bond { a = "main"; b = "helper"; _ }
        | Opt.Pass.Bond { a = "helper"; b = "main"; _ } ->
          true
        | _ -> false)
      ctx.Opt.Pass.reqs
  in
  Alcotest.(check bool) "inline bond logged" true logged

let test_inline_skips_recursive () =
  let src =
    {|
define internal @fib(i32 %n) i32 {
entry:
  %c = icmp sle i32 %n, 1
  br i1 %c, label %base, label %rec
base:
  ret i32 %n
rec:
  %n1 = sub i32 %n, 1
  %a = call i32 @fib(i32 %n1)
  %n2 = sub i32 %n, 2
  %b = call i32 @fib(i32 %n2)
  %r = add i32 %a, %b
  ret i32 %r
}
define external @main() i32 {
entry:
  %r = call i32 @fib(i32 10)
  ret i32 %r
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Inline.pass m);
  Alcotest.(check bool) "fib kept" true (Ir.Modul.mem m "fib");
  Alcotest.(check int64) "semantics" 55L (interp m "main" [])

(* ---------------- loop unroll ---------------- *)

let test_loop_unroll_constant_trip () =
  let src =
    {|
define external @f(i32 %x) i32 {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %i2, %loop ]
  %acc = phi i32 [ %x, %entry ], [ %acc2, %loop ]
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 4
  br i1 %c, label %loop, label %done
done:
  ret i32 %acc2
}
|}
  in
  let m1 = parse src in
  let m2 = parse src in
  let changed = run_pass Opt.Loop_unroll.pass m2 in
  Alcotest.(check bool) "unrolled" true changed;
  let f = Option.get (Ir.Modul.find_func m2 "f") in
  let has_backedge = ref false in
  Ir.Func.iter_blocks
    (fun b ->
      if List.mem b.Ir.Func.label (Ir.Ins.successors b.Ir.Func.term) then
        has_backedge := true)
    f;
  Alcotest.(check bool) "no self loop left" false !has_backedge;
  List.iter
    (fun x ->
      Alcotest.(check int64) "semantics" (interp m1 "f" [ x ]) (interp m2 "f" [ x ]))
    [ 0L; 10L; -3L ]

let test_loop_unroll_skips_dynamic_trip () =
  let src =
    {|
define external @f(i32 %n) i32 {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %i2, %loop ]
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, %n
  br i1 %c, label %loop, label %done
done:
  ret i32 %i2
}
|}
  in
  let m = parse src in
  let changed = run_pass Opt.Loop_unroll.pass m in
  Alcotest.(check bool) "not unrolled" false changed

(* ---------------- full pipeline ---------------- *)

let test_pipeline_end_to_end () =
  let src =
    {|
int compute(int x) {
  int acc = 0;
  for (int i = 0; i < 4; i++) acc += x * 8 + i;
  if (acc > 100) return acc - 100;
  return acc;
}
|}
  in
  let m1 = Minic.Lower.compile src in
  let m2 = Minic.Lower.compile src in
  ignore (Opt.Pipeline.run ~keep:[ "compute" ] m2);
  Ir.Verify.run_exn m2;
  List.iter
    (fun x ->
      Alcotest.(check int64)
        "optimized matches unoptimized" (interp m1 "compute" [ x ])
        (interp m2 "compute" [ x ]))
    [ 0L; 1L; 5L; -7L; 100L ]

let test_pipeline_shrinks_code () =
  let src =
    {|
static int helper(int x, int unused) { return x + 0 + 1 * x; }
int main(void) {
  return helper(21, 99);
}
|}
  in
  let m = Minic.Lower.compile src in
  let before = Ir.Func.insn_count (Option.get (Ir.Modul.find_func m "main")) in
  ignore (Opt.Pipeline.run m);
  let after = Ir.Func.insn_count (Option.get (Ir.Modul.find_func m "main")) in
  Alcotest.(check bool) "code shrank or equal" true (after <= before);
  Alcotest.(check int64) "semantics" 42L (interp m "main" [])

(* property: the whole pipeline preserves semantics of random arith fns *)
let prop_pipeline_preserves =
  QCheck2.Test.make ~name:"pipeline preserves straight-line arithmetic" ~count:30
    QCheck2.Gen.(
      pair (int_range (-100) 100) (list_size (int_range 1 8) (int_range 1 5)))
    (fun (x, ops) ->
      let body =
        List.mapi
          (fun i k ->
            Printf.sprintf "  acc = acc * %d + %d + (acc >> %d);" (k + 1) i (k mod 4))
          ops
        |> String.concat "\n"
      in
      let src =
        Printf.sprintf "int f(int x) {\n  int acc = x;\n%s\n  return acc;\n}" body
      in
      let m1 = Minic.Lower.compile src in
      let m2 = Minic.Lower.compile src in
      ignore (Opt.Pipeline.run ~keep:[ "f" ] m2);
      interp m1 "f" [ Int64.of_int x ] = interp m2 "f" [ Int64.of_int x ])

(* ---------------- jump threading ---------------- *)

let threading_src =
  {|
define external @f(i32 %x) i32 {
entry:
  %c = icmp sgt i32 %x, 10
  br i1 %c, label %a, label %b
a:
  br label %check
b:
  br label %check
check:
  %flag = phi i1 [ 1, %a ], [ 0, %b ]
  br i1 %flag, label %yes, label %no
yes:
  ret i32 100
no:
  ret i32 200
}
|}

let test_jump_threading_threads_constant_phi () =
  let m = parse threading_src in
  let changed = run_pass Opt.Jump_threading.pass m in
  Alcotest.(check bool) "threaded" true changed;
  (* semantics preserved *)
  Alcotest.(check int64) "big" 100L (interp m "f" [ 50L ]);
  Alcotest.(check int64) "small" 200L (interp m "f" [ 3L ])

let test_jump_threading_clones_block () =
  (* the threaded block contains real code: the clone duplicates it,
     which is exactly the probe-duplication hazard of Section 2.2 *)
  let src =
    {|
@g = external global zeroinitializer 8
define external @f(i32 %x) i32 {
entry:
  %c = icmp sgt i32 %x, 10
  br i1 %c, label %a, label %join
a:
  br label %join
join:
  %flag = phi i32 [ 7, %a ], [ 0, %entry ]
  %w = mul i32 %x, 3
  %t = icmp ne i32 %flag, 0
  br i1 %t, label %yes, label %no
yes:
  %wy = phi i32 [ %w, %join ]
  %r1 = add i32 %wy, 1
  ret i32 %r1
no:
  %wn = phi i32 [ %w, %join ]
  ret i32 %wn
}
|}
  in
  let m1 = parse src in
  let m2 = parse src in
  let changed = run_pass Opt.Jump_threading.pass m2 in
  Alcotest.(check bool) "threaded" true changed;
  List.iter
    (fun x ->
      Alcotest.(check int64) "same result" (interp m1 "f" [ x ]) (interp m2 "f" [ x ]))
    [ 0L; 11L; -5L; 100L ]

let test_jump_threading_respects_volatile_condition () =
  (* a volatile (probe) computation feeding the branch must not be
     speculated away *)
  let src =
    {|
define external @f(i32 %x) i32 {
entry:
  %c = icmp sgt i32 %x, 10
  br i1 %c, label %a, label %b
a:
  br label %check
b:
  br label %check
check:
  %flag = phi i32 [ 1, %a ], [ 0, %b ]
  %probe = volatile add i32 %flag, 0
  %t = icmp ne i32 %probe, 0
  br i1 %t, label %yes, label %no
yes:
  ret i32 100
no:
  ret i32 200
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Jump_threading.pass m);
  (* regardless of whether it threaded, semantics must hold *)
  Alcotest.(check int64) "big" 100L (interp m "f" [ 50L ]);
  Alcotest.(check int64) "small" 200L (interp m "f" [ 3L ])

(* property: jump threading preserves semantics on diamond chains *)
let prop_jump_threading_preserves =
  QCheck2.Test.make ~name:"jump threading preserves diamond semantics" ~count:25
    QCheck2.Gen.(pair (int_range (-100) 100) (int_range 1 40))
    (fun (x, k) ->
      let src =
        Printf.sprintf
          {|
int f(int x) {
  int flag = 0;
  if (x > %d) flag = 1;
  int acc = x * 3;
  if (flag) acc = acc + %d;
  else acc = acc - %d;
  return acc;
}
|}
          k k (k * 2)
      in
      let m1 = Minic.Lower.compile src in
      let m2 = Minic.Lower.compile src in
      ignore (Opt.Pipeline.run ~keep:[ "f" ] m2);
      Ir.Verify.run_exn m2;
      interp m1 "f" [ Int64.of_int x ] = interp m2 "f" [ Int64.of_int x ])

(* ---------------- edge cases of the linear-time passes ---------------- *)

(* Each expected text pins a pass's exact output, fresh names and order
   included: a faster pass must reproduce it byte for byte. *)
let check_printed pass src expected =
  let m = parse src in
  ignore (run_pass pass m);
  Alcotest.(check string) "printed IR" expected (Ir.Print.module_to_string m)

let test_inline_prefix_choice () =
  check_printed Opt.Inline.pass
    {|
define internal @f(i32 %x) i32 {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}
define external @main(i32 %a) i32 {
entry:
  %inl.f.0 = add i32 %a, 1
  %inl.f.01 = add i32 %a, 2
  br label %inl.f.1.x
inl.f.1.x:
  %inl.f.2. = add i32 %inl.f.0, %inl.f.01
  %c = call i32 @f(i32 %inl.f.2.)
  ret i32 %c
}
|}
    {|; module parsed
define internal @f(i32 %x) i32 {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}

define external @main(i32 %a) i32 {
entry:
  %inl.f.0 = add i32 %a, 1
  %inl.f.01 = add i32 %a, 2
  br label %inl.f.1.x
inl.f.1.x:
  %inl.f.2. = add i32 %inl.f.0, %inl.f.01
  br label %inl.f.2.entry
inl.f.2.entry:
  %inl.f.2.r = add i32 %inl.f.2., 1
  br label %inl.f.1.x.cont
inl.f.1.x.cont:
  ret i32 %inl.f.2.r
}
|}

(* [mid] costs 31 (one block, 27 adds, one call: threshold 30) until the
   empty callee is inlined into it, which brings it to 30: the site in
   [user], rejected before, must then be taken. *)
let test_inline_restart_after_caller_shrinks () =
  let adds prefix =
    String.concat ""
      (List.init 27 (fun k -> Printf.sprintf "  %%%sv%d = add i32 %%x, %d\n" prefix k k))
  in
  check_printed Opt.Inline.pass
    (Printf.sprintf
       {|
define external @user(i32 %%x) i32 {
entry:
  %%r = call i32 @mid(i32 %%x)
  ret i32 %%r
}
define internal @mid(i32 %%x) i32 {
entry:
%s  call void @empty()
  ret i32 %%v26
}
define internal @empty() void {
entry:
  ret void
}
|}
       (adds ""))
    (Printf.sprintf
       {|; module parsed
define external @user(i32 %%x) i32 {
entry:
  br label %%inl.mid.0.entry
inl.mid.0.entry:
%s  br label %%inl.mid.0.inl.empty.0.entry
inl.mid.0.inl.empty.0.entry:
  br label %%inl.mid.0.entry.cont
inl.mid.0.entry.cont:
  br label %%entry.cont
entry.cont:
  ret i32 %%inl.mid.0.v26
}

define internal @mid(i32 %%x) i32 {
entry:
%s  br label %%inl.empty.0.entry
inl.empty.0.entry:
  br label %%entry.cont
entry.cont:
  ret i32 %%v26
}

define internal @empty() void {
entry:
  ret void
}
|}
       (adds "inl.mid.0.") (adds ""))

(* [t]'s only blockaddress is an argument [ign] ignores: inlining [ign]
   drops it, and the earlier site in [a] becomes inlinable. *)
let test_inline_blockaddr_count_drops () =
  check_printed Opt.Inline.pass
    {|
define internal @t(i32 %x) i32 {
entry:
  br label %next
next:
  %r = add i32 %x, 1
  ret i32 %r
}
define internal @ign(ptr %p) void {
entry:
  ret void
}
define external @a(i32 %x) i32 {
entry:
  %r = call i32 @t(i32 %x)
  ret i32 %r
}
define external @b() void {
entry:
  call void @ign(ptr blockaddress(@t, %next))
  ret void
}
|}
    {|; module parsed
define internal @t(i32 %x) i32 {
entry:
  br label %next
next:
  %r = add i32 %x, 1
  ret i32 %r
}

define internal @ign(ptr %p) void {
entry:
  ret void
}

define external @a(i32 %x) i32 {
entry:
  br label %inl.t.0.entry
inl.t.0.entry:
  br label %inl.t.0.next
inl.t.0.next:
  %inl.t.0.r = add i32 %x, 1
  br label %entry.cont
entry.cont:
  ret i32 %inl.t.0.r
}

define external @b() void {
entry:
  br label %inl.ign.0.entry
inl.ign.0.entry:
  br label %entry.cont
entry.cont:
  ret void
}
|}

let test_dead_arg_elim_address_taken () =
  check_printed Opt.Dead_arg_elim.pass
    {|
@tab = internal constant [ptr x @via_var]
@al = internal alias @via_alias
define internal @via_var(i32 %unused, i32 %x) i32 {
entry:
  ret i32 %x
}
define internal @via_alias(i32 %unused, i32 %x) i32 {
entry:
  ret i32 %x
}
define internal @direct(i32 %unused, i32 %x) i32 {
entry:
  ret i32 %x
}
define external @main(i32 %x) i32 {
entry:
  %a = call i32 @via_var(i32 0, i32 %x)
  %b = call i32 @via_alias(i32 1, i32 %a)
  %c = call i32 @direct(i32 2, i32 %b)
  ret i32 %c
}
|}
    {|; module parsed
@tab = internal constant [ptr x @via_var]

@al = internal alias @via_alias

define internal @via_var(i32 %unused, i32 %x) i32 {
entry:
  ret i32 %x
}

define internal @via_alias(i32 %unused, i32 %x) i32 {
entry:
  ret i32 %x
}

define internal @direct(i32 %x) i32 {
entry:
  ret i32 %x
}

define external @main(i32 %x) i32 {
entry:
  %a = call i32 @via_var(i32 0, i32 %x)
  %b = call i32 @via_alias(i32 1, i32 %a)
  %c = call i32 @direct(i32 %b)
  ret i32 %c
}
|}

(* %v, a promoted load, feeds the header phi %k over the back edge: its
   replacement reaches the phi only after the walk *)
let test_mem2reg_back_edge_phi () =
  check_printed Opt.Mem2reg.pass
    {|
define external @f(i32 %n) i32 {
entry:
  %a = alloca i32, 1
  store i32 0, ptr %a
  br label %head
head:
  %k = phi i32 [ 0, %entry ], [ %v, %body ]
  %x = load i32, ptr %a
  %c = icmp slt i32 %x, %n
  br i1 %c, label %body, label %exit
body:
  %v = load i32, ptr %a
  %w = add i32 %v, %k
  store i32 %w, ptr %a
  br label %head
exit:
  ret i32 %x
}
|}
    {|; module parsed
define external @f(i32 %n) i32 {
entry:
  br label %head
head:
  %a.phi.head = phi i32 [ 0, %entry ], [ %w, %body ]
  %k = phi i32 [ 0, %entry ], [ %a.phi.head, %body ]
  %c = icmp slt i32 %a.phi.head, %n
  br i1 %c, label %body, label %exit
body:
  %w = add i32 %a.phi.head, %k
  br label %head
exit:
  ret i32 %a.phi.head
}
|}

(* %next2 is replaced after the loop header's phi, which uses it, has
   been visited *)
let test_gvn_loop_header_phi () =
  check_printed Opt.Gvn.pass
    {|
define external @f(i32 %n) i32 {
entry:
  %base = add i32 %n, 1
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %next2, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %again = add i32 %n, 1
  %next = add i32 %i, %again
  %next2 = add i32 %again, %i
  br label %head
exit:
  ret i32 %i
}
|}
    {|; module parsed
define external @f(i32 %n) i32 {
entry:
  %base = add i32 %n, 1
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %next, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %next = add i32 %i, %base
  br label %head
exit:
  ret i32 %i
}
|}

let test_dce_chain_and_self_phi () =
  check_printed Opt.Dce.pass
    {|
define external @f(i32 %x, i32 %n) i32 {
entry:
  %d1 = add i32 %x, 1
  %d2 = mul i32 %d1, 2
  %d3 = sub i32 %d2, %x
  br label %loop
loop:
  %self = phi i32 [ 0, %entry ], [ %self, %loop ]
  %q = phi i32 [ 0, %entry ], [ %q2, %loop ]
  %q2 = add i32 %q, 1
  %c = icmp slt i32 %q2, %n
  br i1 %c, label %loop, label %exit
exit:
  ret i32 %x
}
|}
    {|; module parsed
define external @f(i32 %x, i32 %n) i32 {
entry:
  br label %loop
loop:
  %self = phi i32 [ 0, %entry ], [ %self, %loop ]
  %q = phi i32 [ 0, %entry ], [ %q2, %loop ]
  %q2 = add i32 %q, 1
  %c = icmp slt i32 %q2, %n
  br i1 %c, label %loop, label %exit
exit:
  ret i32 %x
}
|}

(* ---------------- golden bit-identity ---------------- *)

(* Digests of optimizer output and of linked images. Any drift in
   inlining order, fresh names or pass output changes them, so every
   optimizer speed-up must keep them. *)

let golden_entry = "target_main"
let md5 s = Digest.to_hex (Digest.string s)

(* A linked image as canonical bytes — data, symbol addresses, machine
   code, each sorted — marshalled without sharing, so the digest does
   not depend on how the heap happens to share values. *)
let image_digest (exe : Link.Linker.exe) =
  let sorted h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare in
  let image =
    List.sort compare
      (List.map (fun (b, by) -> (b, Bytes.to_string by)) exe.Link.Linker.image)
  in
  md5
    (Marshal.to_string
       (image, sorted exe.Link.Linker.sym_addr, sorted exe.Link.Linker.funcs)
       [ Marshal.No_sharing ])

let golden_session ?mode ?(runtime_globals = []) m =
  Odin.Session.create ?mode ~keep:[ golden_entry ] ~runtime_globals
    ~host:Workloads.Generate.host_functions ~pool:Support.Pool.serial
    ~tiered:false m

(* whole-module O2 of every profile but sqlite-xxl *)
let golden_o2 () =
  List.map
    (fun (p : Workloads.Profile.t) ->
      let m = Workloads.Generate.compile p in
      ignore (Opt.Pipeline.run ~keep:[ golden_entry ] m);
      ("o2/" ^ p.Workloads.Profile.name, md5 (Ir.Print.module_to_string m)))
    Workloads.Profile.all

(* Auto-partition coverage builds *)
let golden_cov_builds () =
  List.map
    (fun name ->
      let m = Workloads.Generate.compile (Workloads.Profile.find_exn name) in
      let s =
        golden_session ~mode:Odin.Partition.Auto
          ~runtime_globals:[ Odin.Cov.runtime_global m ] m
      in
      ignore (Odin.Cov.setup s);
      ignore (Odin.Session.build s);
      ("cov-auto/" ^ name, image_digest (Odin.Session.executable s)))
    [ "sqlite"; "json"; "freetype2" ]

(* ten single-mutant refreshes on sqlite: the first ten of 30 evenly
   spaced mutants whose image differs from the pristine one *)
let golden_mutants () =
  let s = golden_session (Workloads.Generate.compile (Workloads.Profile.find_exn "sqlite")) in
  let mutants = Array.of_list (Mutate.Gen.setup s) in
  ignore (Odin.Session.build s);
  let pristine = image_digest (Odin.Session.executable s) in
  let rec take k acc =
    if List.length acc = 10 || k = 30 then List.rev acc
    else begin
      let p = mutants.(k * Array.length mutants / 30) in
      ignore (Odin.Session.refresh_toggles s [ (p, true) ]);
      let d = image_digest (Odin.Session.executable s) in
      ignore (Odin.Session.refresh_toggles s [ (p, false) ]);
      take (k + 1)
        (if d = pristine then acc
         else (Printf.sprintf "mutant/sqlite/%d" p.Instr.Probe.pid, d) :: acc)
    end
  in
  ("pristine/sqlite", pristine) :: take 0 []

let golden_expected =
  [
    ("o2/freetype2", "5d661c5018322a21c4bb970e13c24500");
    ("o2/libjpeg", "9d39a526d1c1e893d9799a62bdb2db29");
    ("o2/proj4", "5b263dd17455f1dbe7c35dafe9fbb63d");
    ("o2/libpng", "3827a03f82dd8e77275b3a2e286237f4");
    ("o2/re2", "dc722aaa4a5407fa5dcf8533c6271b52");
    ("o2/harfbuzz", "7049e6d28eec159b51440f46065bf8d6");
    ("o2/sqlite", "e9bef1c10101b03c8c0f22a77c994edc");
    ("o2/json", "a886cb00c394398156dd26e1ba779192");
    ("o2/libxml2", "0934f0d8967aa526f16a6594c83dc625");
    ("o2/vorbis", "d5f5ef85eaf3a10731bf77a20bfa8c31");
    ("o2/lcms", "ed857e73bb4374bc7a5213f3ec345019");
    ("o2/woff2", "1d46ca63a231785da9e1ac4a6d896241");
    ("o2/x509", "352812af1c70b35ff51141ce1a0f47f8");
    ("cov-auto/sqlite", "7c6b265f2b157391ba44a17751b32d25");
    ("cov-auto/json", "3df0bcfe18bd3c8d2484742ca4945825");
    ("cov-auto/freetype2", "482be5602335a0bdc00d480f9fea053d");
    ("pristine/sqlite", "0d1ccb8509e8e4578900ed7051b4f603");
    ("mutant/sqlite/100", "7dc923ca6465ef759374de3452e10355");
    ("mutant/sqlite/201", "27eab763a9f1d5250cbd48ca5537e726");
    ("mutant/sqlite/403", "94e4a65c179dc4dac315201e72078a1c");
    ("mutant/sqlite/706", "9a1d50d0ba2877a2356dfd4ac2075993");
    ("mutant/sqlite/807", "18d2c09b87a4cbb2f045ca08509e2fe1");
    ("mutant/sqlite/1110", "8b667458be4d5230c598a8ac7bc2a3c2");
    ("mutant/sqlite/1211", "23241142f4563f30adf924e12450c3f5");
    ("mutant/sqlite/1312", "dadfd3027a2c639dac0271411dc57a72");
    ("mutant/sqlite/1413", "8e239471d09552db1d659f6b153d5886");
    ("mutant/sqlite/1614", "187a7bc3ab911e097804683825af92a1");
  ]

let test_golden_digests () =
  let actual = golden_o2 () @ golden_cov_builds () @ golden_mutants () in
  Alcotest.(check (list string)) "keys" (List.map fst golden_expected) (List.map fst actual);
  List.iter2
    (fun (key, want) (_, got) -> Alcotest.(check string) key want got)
    golden_expected actual

let () =
  Alcotest.run "opt"
    [
      ( "mem2reg",
        [
          Alcotest.test_case "removes allocas" `Quick test_mem2reg_removes_allocas;
          Alcotest.test_case "preserves semantics" `Quick test_mem2reg_preserves_semantics;
          Alcotest.test_case "keeps escaping alloca" `Quick test_mem2reg_keeps_escaping_alloca;
          Alcotest.test_case "back-edge phi operand" `Quick test_mem2reg_back_edge_phi;
        ] );
      ( "constfold",
        [
          Alcotest.test_case "folds" `Quick test_constfold_folds;
          Alcotest.test_case "branch folding" `Quick test_constfold_branch;
          Alcotest.test_case "keeps volatile" `Quick test_constfold_keeps_volatile;
        ] );
      ( "instcombine",
        [
          Alcotest.test_case "identities" `Quick test_instcombine_identities;
          Alcotest.test_case "strength reduction" `Quick test_instcombine_strength_reduction;
          Alcotest.test_case "range fold fires (Fig. 2)" `Quick test_range_fold_fires;
          Alcotest.test_case "range fold preserves semantics" `Quick
            test_range_fold_preserves_semantics;
          Alcotest.test_case "range fold blocked by probe" `Quick
            test_range_fold_blocked_by_probe;
          Alcotest.test_case "printf->puts (Fig. 4)" `Quick test_printf_to_puts;
        ] );
      ( "dead-arg-elim",
        [
          Alcotest.test_case "removes dead arg (Fig. 4)" `Quick test_dead_arg_elim_fig4;
          Alcotest.test_case "skips external" `Quick test_dead_arg_elim_skips_external;
          Alcotest.test_case "address taken by var and alias" `Quick
            test_dead_arg_elim_address_taken;
        ] );
      ( "simplifycfg",
        [
          Alcotest.test_case "merges blocks" `Quick test_simplifycfg_merges;
          Alcotest.test_case "keeps blockaddress target" `Quick
            test_simplifycfg_keeps_blockaddr_target;
        ] );
      ( "dce",
        [
          Alcotest.test_case "removes dead" `Quick test_dce_removes_dead_code;
          Alcotest.test_case "keeps probes" `Quick test_dce_keeps_probes;
          Alcotest.test_case "global dce" `Quick test_global_dce;
          Alcotest.test_case "dead chain, self-referencing phi" `Quick
            test_dce_chain_and_self_phi;
        ] );
      ( "gvn",
        [
          Alcotest.test_case "cse" `Quick test_gvn_cse;
          Alcotest.test_case "commutative" `Quick test_gvn_commutative;
          Alcotest.test_case "load invalidation" `Quick test_gvn_load_invalidation;
          Alcotest.test_case "replaces a loop-header phi operand" `Quick
            test_gvn_loop_header_phi;
        ] );
      ( "inline",
        [
          Alcotest.test_case "inlines small" `Quick test_inline_small_function;
          Alcotest.test_case "skips recursive" `Quick test_inline_skips_recursive;
          Alcotest.test_case "prefix choice" `Quick test_inline_prefix_choice;
          Alcotest.test_case "restart after caller shrinks" `Quick
            test_inline_restart_after_caller_shrinks;
          Alcotest.test_case "blockaddress count drops" `Quick
            test_inline_blockaddr_count_drops;
        ] );
      ( "loop-unroll",
        [
          Alcotest.test_case "constant trip count" `Quick test_loop_unroll_constant_trip;
          Alcotest.test_case "skips dynamic trip" `Quick test_loop_unroll_skips_dynamic_trip;
        ] );
      ( "jump-threading",
        [
          Alcotest.test_case "threads constant phi" `Quick
            test_jump_threading_threads_constant_phi;
          Alcotest.test_case "clones block code" `Quick test_jump_threading_clones_block;
          Alcotest.test_case "volatile-fed condition" `Quick
            test_jump_threading_respects_volatile_condition;
          QCheck_alcotest.to_alcotest prop_jump_threading_preserves;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "end to end" `Quick test_pipeline_end_to_end;
          Alcotest.test_case "shrinks code" `Quick test_pipeline_shrinks_code;
          QCheck_alcotest.to_alcotest prop_pipeline_preserves;
        ] );
      ("golden", [ Alcotest.test_case "bit-identical digests" `Quick test_golden_digests ]);
    ]

