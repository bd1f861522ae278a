(** Dead code elimination: removes side-effect-free instructions whose
    results are unused (volatile probes are never touched), and dead
    internal globals that nothing references. *)

open Ir

(* Use-count worklist: removing a dead instruction releases one use of
   each operand, and a pure definition whose count reaches zero is dead
   in turn. This removes the same instructions as re-counting every use
   until nothing changes: those whose uses all end up removed. *)
let run_function _ctx (fn : Func.t) =
  let uses = Func.use_counts fn in
  let count n = Option.value ~default:0 (Hashtbl.find_opt uses n) in
  let dead (i : Ins.ins) =
    (not (Ins.has_side_effect i)) && (i.Ins.id = "" || count i.Ins.id = 0)
  in
  let work = ref (Func.fold_insns (fun acc i -> if dead i then i :: acc else acc) [] fn) in
  if !work = [] then false
  else begin
    let pure_defs = Hashtbl.create 64 in
    Func.iter_insns
      (fun (i : Ins.ins) ->
        if i.Ins.id <> "" && not (Ins.has_side_effect i) then
          Hashtbl.add pure_defs i.Ins.id i)
      fn;
    let release = function
      | Ins.Reg (_, n) ->
        let c = count n - 1 in
        Hashtbl.replace uses n c;
        if c = 0 then work := Hashtbl.find_all pure_defs n @ !work
      | _ -> ()
    in
    while !work <> [] do
      match !work with
      | [] -> ()
      | i :: rest ->
        work := rest;
        List.iter release (Ins.operands i)
    done;
    List.iter
      (fun (b : Func.block) -> b.Func.insns <- List.filter (fun i -> not (dead i)) b.Func.insns)
      fn.Func.blocks;
    true
  end

let function_pass = Pass.function_pass "dce" run_function

(** Remove internal globals that are completely unreferenced (dead
    functions after inlining, dead constants after folding). *)
let global_dce (ctx : Pass.ctx) =
  let m = ctx.Pass.modul in
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let refs = Uses.referencers m in
    let dead =
      List.filter
        (fun gv ->
          Modul.gvalue_linkage gv = Func.Internal
          && Uses.SSet.is_empty (Uses.referencers_of refs (Modul.gvalue_name gv)))
        (Modul.globals m)
    in
    List.iter
      (fun gv ->
        Modul.remove m (Modul.gvalue_name gv);
        changed := true;
        continue_ := true)
      dead
  done;
  !changed

let pass =
  Pass.mk "dce" (fun ctx ->
      let c1 = function_pass.Pass.run ctx in
      let c2 = global_dce ctx in
      c1 || c2)
