(** SanitizerCoverage baseline: compiler-based static instrumentation,
    8-bit counter per basic block, inserted *at the very end of the
    optimization pipeline* — the industry design the paper critiques:
    fast, but the probes observe the optimizer's CFG, not the program's
    (Figure 2), and every probe stays for the whole campaign. *)

let counters_sym = "__sancov_counters"

type t = {
  exe : Link.Linker.exe;
  n_counters : int;
  block_of_counter : (int * string * string) array;
      (** counter id -> (id, function, block label), for coverage maps *)
}

(* Same counter sequence OdinCov uses; fairness demands the identical
   scheme (paper Section 5: "all evaluated coverage tools use the same
   scheme"). *)
let insert_counter (fn : Ir.Func.t) (blk : Ir.Func.block) idx =
  let ptr = Ir.Func.fresh_name fn "scovp" in
  let old = Ir.Func.fresh_name fn "scovv" in
  let incremented = Ir.Func.fresh_name fn "scovi" in
  let seq =
    [
      Ir.Ins.mk ~volatile:true ~id:ptr ~ty:Ir.Types.Ptr
        (Ir.Ins.Gep (Ir.Ins.Global counters_sym, Ir.Builder.i64 idx, 1));
      Ir.Ins.mk ~volatile:true ~id:old ~ty:Ir.Types.I8
        (Ir.Ins.Load (Ir.Ins.Reg (Ir.Types.Ptr, ptr)));
      Ir.Ins.mk ~volatile:true ~id:incremented ~ty:Ir.Types.I8
        (Ir.Ins.Binop (Ir.Ins.Add, Ir.Ins.Reg (Ir.Types.I8, old), Ir.Builder.i8 1));
      Ir.Ins.mk ~volatile:true ~id:"" ~ty:Ir.Types.Void
        (Ir.Ins.Store
           (Ir.Ins.Reg (Ir.Types.I8, incremented), Ir.Ins.Reg (Ir.Types.Ptr, ptr)));
    ]
  in
  let phis, rest =
    List.partition
      (fun (i : Ir.Ins.ins) ->
        match i.Ir.Ins.kind with Ir.Ins.Phi _ -> true | _ -> false)
      blk.Ir.Func.insns
  in
  blk.Ir.Func.insns <- phis @ seq @ rest

let build ?(keep = [ "target_main" ]) ?(host = []) (m : Ir.Modul.t) =
  let copy = Ir.Clone.clone_module m in
  (* optimize first... *)
  ignore (Opt.Pipeline.run ~keep copy);
  (* ...then instrument the optimized CFG *)
  let mapping = ref [] in
  let idx = ref 0 in
  List.iter
    (fun (f : Ir.Func.t) ->
      Ir.Func.iter_blocks
        (fun b ->
          insert_counter f b !idx;
          mapping := (!idx, f.Ir.Func.name, b.Ir.Func.label) :: !mapping;
          incr idx)
        f)
    (Ir.Modul.defined_functions copy);
  let n = max 1 !idx in
  ignore
    (Ir.Modul.add_var copy ~linkage:Ir.Func.External ~name:counters_sym
       (Ir.Modul.Zero n));
  Ir.Verify.run_exn copy;
  let obj = Link.Objfile.of_module copy in
  let exe = Link.Incremental.link ~host [ obj ] in
  { exe; n_counters = !idx; block_of_counter = Array.of_list (List.rev !mapping) }

let read_counter vm t i =
  let base = Vm.addr_of vm counters_sym in
  ignore t;
  Int64.to_int
    (Ir.Types.zext_value Ir.Types.I8
       (Vm.load_mem vm Ir.Types.I8 (Int64.add base (Int64.of_int i))))

(** Indices of the counters that fired. *)
let covered_counters vm t =
  let out = ref [] in
  for i = t.n_counters - 1 downto 0 do
    if read_counter vm t i > 0 then out := i :: !out
  done;
  !out
