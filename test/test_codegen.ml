(* Tests for the backend (isel, regalloc, emission), the linker, and the
   VM. The central discipline is differential testing: every program runs
   both on the reference IR interpreter and as compiled machine code on
   the VM, and the results must agree — before and after optimization. *)

let compile_to_vm ?(host = []) m =
  let obj = Link.Objfile.of_module m in
  let exe = Link.Incremental.link ~host:(List.map fst host) [ obj ] in
  let vm = Vm.create exe in
  List.iter (fun (n, f) -> Vm.register_host vm n f) host;
  vm

let run_vm ?host src fname args =
  let m = Minic.Lower.compile src in
  let vm = compile_to_vm ?host m in
  Vm.call vm fname args

(* run the same source in interp and vm, optionally optimized, and check
   agreement on all argument vectors *)
let differential ?(optimize = false) ~keep src fname arg_vectors =
  let m_interp = Minic.Lower.compile src in
  let m_vm = Minic.Lower.compile src in
  if optimize then begin
    ignore (Opt.Pipeline.run ~keep m_vm);
    Ir.Verify.run_exn m_vm
  end;
  let st = Ir.Interp.create m_interp in
  let vm = compile_to_vm m_vm in
  List.iter
    (fun args ->
      let expected = Ir.Interp.run st fname args in
      let got = Vm.call vm fname args in
      Alcotest.(check int64)
        (Printf.sprintf "%s%s" fname (if optimize then " (optimized)" else ""))
        expected got)
    arg_vectors

let test_vm_arith () =
  Alcotest.(check int64) "add" 7L
    (run_vm "int f(int a, int b) { return a + b; }" "f" [ 3L; 4L ])

let test_vm_factorial () =
  let src = "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }" in
  Alcotest.(check int64) "6!" 720L (run_vm src "fact" [ 6L ])

let test_vm_loop_sum () =
  let src =
    "int f(int n) { int acc = 0; for (int i = 0; i < n; i++) acc += i; return acc; }"
  in
  Alcotest.(check int64) "sum" 4950L (run_vm src "f" [ 100L ])

let test_vm_memory () =
  let src =
    {|
static int buf[16];
int f(int n) {
  for (int i = 0; i < n; i++) buf[i] = i * 3;
  int acc = 0;
  for (int i = 0; i < n; i++) acc += buf[i];
  return acc;
}
|}
  in
  Alcotest.(check int64) "memory" 360L (run_vm src "f" [ 16L ])

let test_vm_switch () =
  let src =
    {|
int f(int x) {
  switch (x) {
    case 0: return 100;
    case 1: return 101;
    case 7: return 107;
    default: return -1;
  }
}
|}
  in
  Alcotest.(check int64) "case 0" 100L (run_vm src "f" [ 0L ]);
  Alcotest.(check int64) "case 7" 107L (run_vm src "f" [ 7L ]);
  Alcotest.(check int64) "default" (-1L) (run_vm src "f" [ 3L ])

let test_vm_function_pointers () =
  let src =
    {|
static int inc(int x) { return x + 1; }
static int dbl(int x) { return x * 2; }
static int *ops[2] = {inc, dbl};
int apply(int i, int x) {
  int *f = ops[i];
  return f(x);
}
|}
  in
  Alcotest.(check int64) "inc" 8L (run_vm src "apply" [ 0L; 7L ]);
  Alcotest.(check int64) "dbl" 14L (run_vm src "apply" [ 1L; 7L ])

let test_vm_host_function () =
  let src = {|
extern int observe(int x);
int f(int x) { return observe(x) + 1; }
|} in
  let v = run_vm ~host:[ ("observe", fun vm -> Int64.mul (vm.Vm.regs.(0)) 10L) ] src "f" [ 4L ] in
  Alcotest.(check int64) "host" 41L v

let test_vm_cycles_counted () =
  let src = "int f(int n) { int acc = 0; for (int i = 0; i < n; i++) acc += i; return acc; }" in
  let m = Minic.Lower.compile src in
  let vm = compile_to_vm m in
  ignore (Vm.call vm "f" [ 10L ]);
  let c10 = vm.Vm.cycles in
  Vm.reset_counters vm;
  ignore (Vm.call vm "f" [ 100L ]);
  let c100 = vm.Vm.cycles in
  Alcotest.(check bool) "cycles scale with work" true (c100 > c10 * 5)

let test_vm_block_hook () =
  let src = "int f(int n) { int acc = 0; for (int i = 0; i < n; i++) acc += i; return acc; }" in
  let m = Minic.Lower.compile src in
  let vm = compile_to_vm m in
  let entries = ref 0 in
  Vm.set_block_hook vm (fun _ _ _ -> incr entries);
  ignore (Vm.call vm "f" [ 10L ]);
  (* loop executes ~10 iterations over cond+body+step blocks *)
  Alcotest.(check bool) "hook fires per block" true (!entries > 20)

let test_linker_duplicate_symbol () =
  let src = "int f(void) { return 1; }" in
  let m1 = Minic.Lower.compile src in
  let m2 = Minic.Lower.compile src in
  let o1 = Link.Objfile.of_module m1 in
  let o2 = Link.Objfile.of_module m2 in
  Alcotest.check_raises "duplicate"
    (Link.Linker.Duplicate_symbol
       { symbol = "f"; in_object = "program"; prior = "program" }) (fun () ->
      ignore (Link.Incremental.link [ o1; o2 ]));
  (* the typed error renders a readable diagnostic naming both objects *)
  Alcotest.(check (option string))
    "message"
    (Some "duplicate symbol @f: defined in program and again in program")
    (Link.Linker.link_error_message
       (Link.Linker.Duplicate_symbol
          { symbol = "f"; in_object = "program"; prior = "program" }))

let test_linker_comdat_folding () =
  (* two objects define the same COMDAT symbol; first wins, no error *)
  let mk () =
    let m = Ir.Modul.create () in
    let fn =
      Ir.Modul.add_function m ~comdat:"tpl" ~name:"tpl_fn"
        ~params:[ (Ir.Types.I32, "x") ]
        ~ret:Ir.Types.I32 []
    in
    let b = Ir.Builder.create fn in
    let _ = Ir.Builder.new_block b "entry" in
    let r = Ir.Builder.binop b Ir.Ins.Add Ir.Types.I32 (Ir.Ins.Reg (Ir.Types.I32, "x")) (Ir.Builder.i32 1) in
    Ir.Builder.ret b (Some r);
    m
  in
  let o1 = Link.Objfile.of_module (mk ()) in
  let o2 = Link.Objfile.of_module (mk ()) in
  let exe = Link.Incremental.link [ o1; o2 ] in
  let vm = Vm.create exe in
  Alcotest.(check int64) "folded" 5L (Vm.call vm "tpl_fn" [ 4L ])

let test_linker_undefined_symbol () =
  let m = Ir.Parse.module_of_string
      {|
define external @f() i32 {
entry:
  %r = call i32 @missing_fn()
  ret i32 %r
}
declare external @missing_fn() i32
|}
  in
  let obj = Link.Objfile.of_module m in
  Alcotest.check_raises "undefined"
    (Link.Linker.Undefined_symbol
       { symbol = "missing_fn"; referenced_from = "parsed" })
    (fun () -> ignore (Link.Incremental.link [ obj ]));
  Alcotest.(check (option string))
    "message"
    (Some "undefined symbol @missing_fn (referenced from parsed)")
    (Link.Linker.link_error_message
       (Link.Linker.Undefined_symbol
          { symbol = "missing_fn"; referenced_from = "parsed" }))

let test_linker_cross_object_call () =
  let m1 =
    Ir.Parse.module_of_string
      {|
declare external @callee(i32 %x) i32
define external @caller(i32 %x) i32 {
entry:
  %r = call i32 @callee(i32 %x)
  ret i32 %r
}
|}
  in
  let m2 =
    Ir.Parse.module_of_string
      {|
define external @callee(i32 %x) i32 {
entry:
  %r = mul i32 %x, 3
  ret i32 %r
}
|}
  in
  let exe = Link.Incremental.link [ Link.Objfile.of_module m1; Link.Objfile.of_module m2 ] in
  let vm = Vm.create exe in
  Alcotest.(check int64) "cross-object" 21L (Vm.call vm "caller" [ 7L ])

let test_objfile_alias_requires_local_base () =
  let m =
    Ir.Parse.module_of_string
      {|
@a = external alias @base
define external @base() i32 {
entry:
  ret i32 9
}
|}
  in
  (* alias with local base: fine, both names callable at the same address *)
  let exe = Link.Incremental.link [ Link.Objfile.of_module m ] in
  let vm = Vm.create exe in
  Alcotest.(check int64) "via alias" 9L (Vm.call vm "a" []);
  Alcotest.(check int64) "same address" (Link.Linker.addr_of exe "base")
    (Link.Linker.addr_of exe "a")

let test_objfile_alias_split_fails () =
  (* the innate constraint: compiling the alias separately from its base
     must fail at emission (paper Section 2.3) *)
  let m =
    Ir.Parse.module_of_string
      {|
@a = external alias @base
declare external @base() i32
|}
  in
  Alcotest.check_raises "alias split"
    (Link.Objfile.Emit_error "alias @a: base symbol @base is not defined in module parsed")
    (fun () -> ignore (Link.Objfile.of_module m))

(* ------------- differential: interp vs VM ------------- *)

let collatz_src =
  {|
int steps(int n) {
  int count = 0;
  while (n != 1 && count < 1000) {
    if (n % 2 == 0) n = n / 2;
    else n = 3 * n + 1;
    count++;
  }
  return count;
}
|}

let crc_src =
  {|
static const int table[8] = {7, 11, 13, 17, 19, 23, 29, 31};
long crc(long seed, int rounds) {
  long h = seed;
  for (int i = 0; i < rounds; i++) {
    h = h * 31 + table[i % 8];
    h = h ^ (h >> 7);
  }
  return h;
}
|}

let string_scan_src =
  {|
static const char keyword[] = "needle";
int find(char *buf, int len) {
  for (int i = 0; i + 6 <= len; i++) {
    int ok = 1;
    for (int j = 0; j < 6; j++) {
      if (buf[i + j] != keyword[j]) { ok = 0; break; }
    }
    if (ok) return i;
  }
  return -1;
}
int check(int c0, int c1) {
  char buf[16];
  buf[0] = 'x';
  buf[1] = c0;
  buf[2] = 'n'; buf[3] = 'e'; buf[4] = 'e'; buf[5] = 'd';
  buf[6] = 'l'; buf[7] = 'e';
  buf[8] = c1;
  return find(buf, 9);
}
|}

let test_diff_collatz () =
  differential ~keep:[ "steps" ] collatz_src "steps"
    (List.map (fun n -> [ Int64.of_int n ]) [ 1; 2; 7; 27; 97; 871 ])

let test_diff_collatz_optimized () =
  differential ~optimize:true ~keep:[ "steps" ] collatz_src "steps"
    (List.map (fun n -> [ Int64.of_int n ]) [ 1; 2; 7; 27; 97; 871 ])

let test_diff_crc () =
  differential ~keep:[ "crc" ] crc_src "crc"
    [ [ 1L; 4L ]; [ 99L; 20L ]; [ -7L; 13L ]; [ 123456L; 50L ] ]

let test_diff_crc_optimized () =
  differential ~optimize:true ~keep:[ "crc" ] crc_src "crc"
    [ [ 1L; 4L ]; [ 99L; 20L ]; [ -7L; 13L ]; [ 123456L; 50L ] ]

let test_diff_string_scan () =
  differential ~keep:[ "check" ] string_scan_src "check"
    [ [ 110L; 0L ]; [ 65L; 90L ]; [ 0L; 0L ] ]

let test_diff_string_scan_optimized () =
  differential ~optimize:true ~keep:[ "check" ] string_scan_src "check"
    [ [ 110L; 0L ]; [ 65L; 90L ]; [ 0L; 0L ] ]

(* property: random arithmetic expression trees agree between interp and
   compiled code, optimized and not *)
let gen_expr_src (ops : (int * int) list) =
  let body =
    List.mapi
      (fun i (op, k) ->
        let k = 1 + abs k mod 50 in
        match op mod 6 with
        | 0 -> Printf.sprintf "  a = a + b * %d;" k
        | 1 -> Printf.sprintf "  b = b - (a >> %d);" (k mod 8)
        | 2 -> Printf.sprintf "  a = (a ^ b) + %d;" k
        | 3 -> Printf.sprintf "  b = b | (a & %d);" k
        | 4 -> Printf.sprintf "  a = a * %d; b = b + %d;" (k mod 7) i
        | _ -> Printf.sprintf "  if (a > b) a = a - %d; else b = b + %d;" k k)
      ops
    |> String.concat "\n"
  in
  Printf.sprintf "long f(long a, long b) {\n%s\n  return a * 31 + b;\n}" body

let prop_diff_random_arith =
  QCheck2.Test.make ~name:"interp = VM on random arithmetic (O0 and O2)" ~count:40
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 12) (pair (int_bound 5) (int_bound 100)))
        (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (ops, a, b) ->
      let src = gen_expr_src ops in
      let m_interp = Minic.Lower.compile src in
      let m_o0 = Minic.Lower.compile src in
      let m_o2 = Minic.Lower.compile src in
      ignore (Opt.Pipeline.run ~keep:[ "f" ] m_o2);
      let st = Ir.Interp.create m_interp in
      let args = [ Int64.of_int a; Int64.of_int b ] in
      let expected = Ir.Interp.run st "f" args in
      let vm0 = compile_to_vm m_o0 in
      let vm2 = compile_to_vm m_o2 in
      Vm.call vm0 "f" args = expected && Vm.call vm2 "f" args = expected)

let () =
  Alcotest.run "codegen"
    [
      ( "vm",
        [
          Alcotest.test_case "arith" `Quick test_vm_arith;
          Alcotest.test_case "factorial" `Quick test_vm_factorial;
          Alcotest.test_case "loop sum" `Quick test_vm_loop_sum;
          Alcotest.test_case "memory" `Quick test_vm_memory;
          Alcotest.test_case "switch" `Quick test_vm_switch;
          Alcotest.test_case "function pointers" `Quick test_vm_function_pointers;
          Alcotest.test_case "host function" `Quick test_vm_host_function;
          Alcotest.test_case "cycles counted" `Quick test_vm_cycles_counted;
          Alcotest.test_case "block hook" `Quick test_vm_block_hook;
        ] );
      ( "linker",
        [
          Alcotest.test_case "duplicate symbol" `Quick test_linker_duplicate_symbol;
          Alcotest.test_case "comdat folding" `Quick test_linker_comdat_folding;
          Alcotest.test_case "undefined symbol" `Quick test_linker_undefined_symbol;
          Alcotest.test_case "cross-object call" `Quick test_linker_cross_object_call;
          Alcotest.test_case "alias shares address" `Quick test_objfile_alias_requires_local_base;
          Alcotest.test_case "alias split rejected" `Quick test_objfile_alias_split_fails;
        ] );
      ( "differential",
        [
          Alcotest.test_case "collatz O0" `Quick test_diff_collatz;
          Alcotest.test_case "collatz O2" `Quick test_diff_collatz_optimized;
          Alcotest.test_case "crc O0" `Quick test_diff_crc;
          Alcotest.test_case "crc O2" `Quick test_diff_crc_optimized;
          Alcotest.test_case "string scan O0" `Quick test_diff_string_scan;
          Alcotest.test_case "string scan O2" `Quick test_diff_string_scan_optimized;
          QCheck_alcotest.to_alcotest prop_diff_random_arith;
        ] );
    ]
