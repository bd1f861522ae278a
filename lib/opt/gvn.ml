(** Value numbering: common-subexpression elimination over pure
    instructions, scoped by the dominator tree (an expression available in
    a dominator is available here). Loads are only CSE'd within a block,
    with volatile probes, stores and calls acting as barriers (any of them
    may alias or reorder against memory). *)

open Ir

(* A structural key for a pure instruction. *)
let key_of_value = function
  | Ins.Const (ty, v) -> Printf.sprintf "c%s:%Ld" (Types.to_string ty) v
  | Ins.Reg (_, n) -> "r" ^ n
  | Ins.Global g -> "g" ^ g
  | Ins.Blockaddr (f, l) -> Printf.sprintf "b%s:%s" f l
  | Ins.Undef _ -> "u"

let key_of_ins (i : Ins.ins) =
  let vs vals = String.concat "," (List.map key_of_value vals) in
  match i.Ins.kind with
  | Ins.Binop (op, a, b) ->
    (* normalize commutative operand order *)
    let ka = key_of_value a and kb = key_of_value b in
    let ka, kb =
      match op with
      | Ins.Add | Ins.Mul | Ins.And | Ins.Or | Ins.Xor ->
        if String.compare ka kb <= 0 then (ka, kb) else (kb, ka)
      | _ -> (ka, kb)
    in
    Some
      (Printf.sprintf "bin:%s:%s:%s:%s" (Ins.binop_to_string op)
         (Types.to_string i.Ins.ty) ka kb)
  | Ins.Icmp (p, a, b) ->
    Some
      (Printf.sprintf "icmp:%s:%s:%s" (Ins.icmp_to_string p) (key_of_value a)
         (key_of_value b))
  | Ins.Select (c, a, b) -> Some ("sel:" ^ vs [ c; a; b ])
  | Ins.Cast (c, a) ->
    Some
      (Printf.sprintf "cast:%s:%s:%s" (Ins.cast_to_string c)
         (Types.to_string i.Ins.ty) (key_of_value a))
  | Ins.Gep (a, b, sz) -> Some (Printf.sprintf "gep:%s:%d" (vs [ a; b ]) sz)
  | Ins.Load _ | Ins.Store _ | Ins.Call _ | Ins.Phi _ | Ins.Alloca _ -> None

(* loads get separate, block-local numbering *)
let load_key (i : Ins.ins) =
  match i.Ins.kind with
  | Ins.Load p ->
    Some (Printf.sprintf "load:%s:%s" (Types.to_string i.Ins.ty) (key_of_value p))
  | _ -> None

let is_memory_barrier (i : Ins.ins) =
  i.Ins.volatile
  || match i.Ins.kind with Ins.Store _ | Ins.Call _ -> true | _ -> false

module SMap = Map.Make (String)

(* A redundant instruction's name is recorded in [subst] rather than
   replaced throughout the function at once: the dominator walk applies
   [subst] to each instruction's operands before numbering it (in SSA
   every non-phi operand is defined, and so substituted, by then), and
   one final [map_values] rewrites everything the walk left behind —
   phis fed by back edges, terminators, unreachable blocks. *)
let run_function _ctx (fn : Func.t) =
  if fn.Func.blocks = [] then false
  else begin
    let subst : (string, Ins.value) Hashtbl.t = Hashtbl.create 16 in
    let substitute v =
      match v with
      | Ins.Reg (_, n) -> Option.value ~default:v (Hashtbl.find_opt subst n)
      | _ -> v
    in
    let children = Dom.children (Dom.compute fn) in
    let block_of = Hashtbl.create 16 in
    Func.iter_blocks (fun b -> Hashtbl.replace block_of b.Func.label b) fn;
    let rec walk label (avail : Ins.value SMap.t) =
      match Hashtbl.find_opt block_of label with
      | None -> ()
      | Some b ->
        let avail = ref avail in
        let loads = ref SMap.empty in
        let kept = ref [] in
        List.iter
          (fun (i : Ins.ins) ->
            if Hashtbl.length subst > 0 then Ins.map_operands substitute i;
            if is_memory_barrier i then begin
              loads := SMap.empty;
              kept := i :: !kept
            end
            else
              match key_of_ins i with
              | Some key -> (
                match SMap.find_opt key !avail with
                | Some v when i.Ins.id <> "" -> Hashtbl.replace subst i.Ins.id v
                | _ ->
                  if i.Ins.id <> "" then
                    avail := SMap.add key (Ins.Reg (i.Ins.ty, i.Ins.id)) !avail;
                  kept := i :: !kept)
              | None -> (
                match load_key i with
                | Some key -> (
                  match SMap.find_opt key !loads with
                  | Some v when i.Ins.id <> "" -> Hashtbl.replace subst i.Ins.id v
                  | _ ->
                    if i.Ins.id <> "" then
                      loads := SMap.add key (Ins.Reg (i.Ins.ty, i.Ins.id)) !loads;
                    kept := i :: !kept)
                | None -> kept := i :: !kept))
          b.Func.insns;
        b.Func.insns <- List.rev !kept;
        List.iter
          (fun child -> walk child !avail)
          (Option.value ~default:[] (Hashtbl.find_opt children label))
    in
    walk (List.hd fn.Func.blocks).Func.label SMap.empty;
    let changed = Hashtbl.length subst > 0 in
    if changed then Func.map_values substitute fn;
    changed
  end

let pass = Pass.function_pass "gvn" run_function
