(** Function inlining (bottom-up along the call graph). Inlining is the
    paper's canonical example of an interprocedural optimization that
    clones basic blocks across functions (Section 2.2, item 4) and that
    bonds a callee to its caller for partitioning purposes: redoing the
    inline at fragment-recompilation time requires both symbols in the
    same fragment. *)

open Ir

let default_threshold = 30

let is_recursive (f : Func.t) =
  let rec_ = ref false in
  Func.iter_insns
    (fun i ->
      match i.Ins.kind with
      | Ins.Call (Ins.Direct n, _) when String.equal n f.Func.name -> rec_ := true
      | _ -> ())
    f;
  !rec_

(* Targets of the [Blockaddr] operands in [f], one entry per operand. *)
let blockaddr_targets (f : Func.t) =
  let acc = ref [] in
  let scan = function Ins.Blockaddr (g, _) -> acc := g :: !acc | _ -> () in
  Func.iter_blocks
    (fun b ->
      List.iter (fun i -> List.iter scan (Ins.operands i)) b.Func.insns;
      List.iter scan (Ins.term_operands b.Func.term))
    f;
  !acc

(* Cost model: probes are volatile and count double, so instrumented
   callees inline less readily — this is precisely how instrument-first
   "leaves less room for optimization" (Section 2.2). *)
let inline_cost (f : Func.t) =
  Func.fold_insns
    (fun acc (i : Ins.ins) ->
      acc + (if i.Ins.volatile then 2 else 1)
      + (match i.Ins.kind with Ins.Call _ -> 2 | _ -> 0))
    (List.length f.Func.blocks)
    f

(* The least N for a new [inl.<callee>.N] prefix: no label or register
   of [caller] may be [inl.<callee>.N] itself or start with
   [inl.<callee>.N.] followed by more characters — repeated inlining of
   the same callee must not collide. One scan of the caller's names
   collects the N they block. *)
let free_suffix (caller : Func.t) (callee : Func.t) =
  let base = "inl." ^ callee.Func.name ^ "." in
  let bl = String.length base in
  let blocked = Hashtbl.create 8 in
  let note name =
    let len = String.length name in
    if len > bl && String.starts_with ~prefix:base name then begin
      let stop =
        match String.index_from_opt name bl '.' with
        | None -> len
        | Some d when d < len - 1 -> d
        | Some _ -> bl (* [base ^ N ^ "."] blocks nothing *)
      in
      let digits = String.sub name bl (stop - bl) in
      let canonical =
        digits <> ""
        && String.length digits <= 9
        && String.for_all (fun c -> c >= '0' && c <= '9') digits
        && (digits = "0" || digits.[0] <> '0')
      in
      if canonical then Hashtbl.replace blocked (int_of_string digits) ()
    end
  in
  Func.iter_blocks (fun b -> note b.Func.label) caller;
  Func.iter_insns (fun i -> if i.Ins.id <> "" then note i.Ins.id) caller;
  let rec pick n = if Hashtbl.mem blocked n then pick (n + 1) else n in
  pick 0

(* Inline one call site. [call_ins] must be a direct call belonging to
   [caller]. Returns true on success. *)
let inline_site (caller : Func.t) (callee : Func.t) (call_ins : Ins.ins) =
  (* locate the block and split it at the call *)
  let host =
    List.find_opt
      (fun (b : Func.block) -> List.memq call_ins b.Func.insns)
      caller.Func.blocks
  in
  match (host, call_ins.Ins.kind) with
  | Some host, Ins.Call (Ins.Direct _, args) ->
    let prefix = Printf.sprintf "inl.%s.%d" callee.Func.name (free_suffix caller callee) in
    let rename_label l = prefix ^ "." ^ l in
    let rename_reg r = prefix ^ "." ^ r in
    (* clone callee body with renamed registers and labels *)
    let param_map = Hashtbl.create 8 in
    List.iteri
      (fun idx (_, p) ->
        match List.nth_opt args idx with
        | Some a -> Hashtbl.replace param_map p a
        | None -> Hashtbl.replace param_map p (Ins.Undef Types.I64))
      callee.Func.params;
    let map_value = function
      | Ins.Reg (ty, n) -> (
        match Hashtbl.find_opt param_map n with
        | Some a -> a
        | None -> Ins.Reg (ty, rename_reg n))
      | v -> v
    in
    let clone_ins (i : Ins.ins) =
      let copy = { i with Ins.id = (if i.Ins.id = "" then "" else rename_reg i.Ins.id) } in
      Ins.map_operands map_value copy;
      (match copy.Ins.kind with
      | Ins.Phi incoming ->
        copy.Ins.kind <- Ins.Phi (List.map (fun (l, v) -> (rename_label l, v)) incoming)
      | _ -> ());
      copy
    in
    let cont_label = Func.fresh_label caller (host.Func.label ^ ".cont") in
    let rets = ref [] in
    let clone_block (b : Func.block) =
      let insns = List.map clone_ins b.Func.insns in
      let term =
        match b.Func.term with
        | Ins.Ret v ->
          let v = Option.map map_value v in
          rets := (rename_label b.Func.label, v) :: !rets;
          Ins.Br cont_label
        | Ins.Br l -> Ins.Br (rename_label l)
        | Ins.Cbr (c, a, b2) -> Ins.Cbr (map_value c, rename_label a, rename_label b2)
        | Ins.Switch (v, d, cases) ->
          Ins.Switch
            (map_value v, rename_label d, List.map (fun (k, l) -> (k, rename_label l)) cases)
        | Ins.Unreachable -> Ins.Unreachable
      in
      { Func.label = rename_label b.Func.label; insns; term }
    in
    let body = List.map clone_block callee.Func.blocks in
    (* split the host block *)
    let rec split acc = function
      | [] -> (List.rev acc, [])
      | i :: rest when i == call_ins -> (List.rev acc, rest)
      | i :: rest -> split (i :: acc) rest
    in
    let before, after = split [] host.Func.insns in
    let cont = { Func.label = cont_label; insns = after; term = host.Func.term } in
    (* successors' phis must now name cont instead of host *)
    List.iter
      (fun succ ->
        match Func.find_block caller succ with
        | None -> ()
        | Some sb ->
          List.iter
            (fun (i : Ins.ins) ->
              match i.Ins.kind with
              | Ins.Phi incoming ->
                i.Ins.kind <-
                  Ins.Phi
                    (List.map
                       (fun (l, v) ->
                         if String.equal l host.Func.label then (cont_label, v) else (l, v))
                       incoming)
              | _ -> ())
            sb.Func.insns)
      (Ins.successors host.Func.term);
    let entry_label =
      match body with
      | [] -> cont_label
      | b :: _ -> b.Func.label
    in
    host.Func.insns <- before;
    host.Func.term <- Ins.Br entry_label;
    (* splice first: replace_uses below must see the continuation block *)
    let rec insert_after = function
      | [] -> []
      | b :: rest when b == host -> (b :: body) @ (cont :: rest)
      | b :: rest -> b :: insert_after rest
    in
    caller.Func.blocks <- insert_after caller.Func.blocks;
    (* return value: single ret -> direct substitution; else a phi *)
    (if call_ins.Ins.id <> "" then
       match !rets with
       | [] -> Func.replace_uses caller call_ins.Ins.id (Ins.Undef call_ins.Ins.ty)
       | [ (_, Some v) ] -> Func.replace_uses caller call_ins.Ins.id v
       | [ (_, None) ] ->
         Func.replace_uses caller call_ins.Ins.id (Ins.Undef call_ins.Ins.ty)
       | many ->
         let phi =
           Ins.mk
             ~id:(Func.fresh_name caller (call_ins.Ins.id ^ ".ret"))
             ~ty:call_ins.Ins.ty
             (Ins.Phi
                (List.rev_map
                   (fun (l, v) ->
                     (l, Option.value ~default:(Ins.Undef call_ins.Ins.ty) v))
                   many))
         in
         cont.Func.insns <- phi :: cont.Func.insns;
         Func.replace_uses caller call_ins.Ins.id (Ins.Reg (phi.Ins.ty, phi.Ins.id)));
    true
  | _ -> false

(* Sites are taken in module order — first function, first block, first
   instruction — and the search restarts after every inline. Restarting
   from the first function and re-deciding every site would be quadratic
   in the module, so: each function's (recursive, cost) summary is
   computed once and dropped only for the caller an inline mutates;
   [Blockaddr] operands are reference-counted per target; and the scan
   resumes at the host block of the last inline. Every site before that
   point was rejected and stays rejected unless some callee became
   inlinable: the caller itself, or a function whose last [Blockaddr]
   reference went away. Only those two cases send the scan back to the
   first function, so sites are taken in the same order as by a full
   rescan. *)
let run ?(threshold = default_threshold) (ctx : Pass.ctx) =
  let m = ctx.Pass.modul in
  let funcs = Array.of_list (Modul.defined_functions m) in
  let baddr = Hashtbl.create 16 in
  let bump delta g =
    Hashtbl.replace baddr g (delta + Option.value ~default:0 (Hashtbl.find_opt baddr g))
  in
  (* counted on first use, which precedes any inline: a module without
     an inlinable callee never pays for the scan *)
  let counted = lazy (Array.iter (fun f -> List.iter (bump 1) (blockaddr_targets f)) funcs) in
  let count g =
    Lazy.force counted;
    Option.value ~default:0 (Hashtbl.find_opt baddr g)
  in
  let summaries = Hashtbl.create 64 in
  let inlinable (f : Func.t) =
    (not (Func.is_declaration f))
    && (let recursive, cost =
          match Hashtbl.find_opt summaries f.Func.name with
          | Some s -> s
          | None ->
            let s = (is_recursive f, inline_cost f) in
            Hashtbl.replace summaries f.Func.name s;
            s
        in
        (not recursive) && cost <= threshold)
    && count f.Func.name = 0
  in
  let site k (b : Func.block) =
    List.find_map
      (fun (i : Ins.ins) ->
        match i.Ins.kind with
        | Ins.Call (Ins.Direct name, _) when not i.Ins.volatile -> (
          match Modul.find_func m name with
          | Some callee
            when (not (String.equal funcs.(k).Func.name name)) && inlinable callee ->
            Some (k, b, callee, i)
          | _ -> None)
        | _ -> None)
      b.Func.insns
  in
  (* first acceptable site in [blocks] of [funcs.(k)], then in the
     functions after it *)
  let rec find k blocks =
    match List.find_map (site k) blocks with
    | Some _ as found -> found
    | None when k + 1 < Array.length funcs -> find (k + 1) funcs.(k + 1).Func.blocks
    | None -> None
  in
  let changed = ref false in
  let budget = ref 5000 in
  let rec loop k blocks =
    if !budget > 0 then
      match find k blocks with
      | None -> ()
      | Some (k, host, callee, call_ins) ->
        let caller = funcs.(k) in
        let was_inlinable = inlinable caller in
        let before = blockaddr_targets caller in
        if inline_site caller callee call_ins then begin
          Pass.log_bond ctx caller.Func.name callee.Func.name "inline";
          changed := true;
          decr budget;
          Hashtbl.remove summaries caller.Func.name;
          List.iter (bump (-1)) before;
          List.iter (bump 1) (blockaddr_targets caller);
          if (not was_inlinable && inlinable caller)
             || List.exists (fun g -> count g = 0) before
          then loop 0 funcs.(0).Func.blocks
          else begin
            let rec from_host = function
              | b :: _ as l when b == host -> l
              | _ :: rest -> from_host rest
              | [] -> []
            in
            loop k (from_host caller.Func.blocks)
          end
        end
  in
  if Array.length funcs > 0 then loop 0 funcs.(0).Func.blocks;
  !changed

let pass = Pass.mk "inline" (fun ctx -> run ctx)
