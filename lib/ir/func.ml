(** Basic blocks and functions. *)

type block = {
  mutable label : string;
  mutable insns : Ins.ins list;
  mutable term : Ins.term;
}

type linkage =
  | External  (** exported; visible to other fragments/objects *)
  | Internal  (** local to its module/fragment *)

type t = {
  name : string;
  mutable linkage : linkage;
  mutable params : (Types.ty * string) list;
  mutable ret : Types.ty;
  mutable blocks : block list;  (** empty means declaration *)
  mutable comdat : string option;
      (** COMDAT group key; symbols of a group must be emitted together
          (innate partition constraint, paper Section 2.3) *)
  mutable attrs : string list;
}

let mk ?(linkage = External) ?comdat ?(attrs = []) ~name ~params ~ret blocks =
  { name; linkage; params; ret; blocks; comdat; attrs }

let is_declaration fn = fn.blocks = []

let entry fn =
  match fn.blocks with
  | [] -> invalid_arg ("Func.entry: declaration " ^ fn.name)
  | b :: _ -> b

let find_block fn label =
  List.find_opt (fun b -> String.equal b.label label) fn.blocks

let find_block_exn fn label =
  match find_block fn label with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Func.find_block: %s has no %%%s" fn.name label)

let iter_blocks f fn = List.iter f fn.blocks

let iter_insns f fn =
  List.iter (fun b -> List.iter f b.insns) fn.blocks

(** Fold over all instructions, block order then instruction order. *)
let fold_insns f acc fn =
  List.fold_left (fun acc b -> List.fold_left f acc b.insns) acc fn.blocks

let block_count fn = List.length fn.blocks

let insn_count fn =
  List.fold_left (fun n b -> n + List.length b.insns) 0 fn.blocks

(** Apply [f] to every operand of every instruction and terminator. *)
let map_values f fn =
  let map_block b =
    List.iter (Ins.map_operands f) b.insns;
    b.term <- Ins.map_term_operands f b.term
  in
  List.iter map_block fn.blocks

(** Replace all uses of SSA register [name] with [v]. *)
let replace_uses fn name v =
  let subst value =
    match value with
    | Ins.Reg (_, n) when String.equal n name -> v
    | other -> other
  in
  map_values subst fn

(** Name allocator: the SSA names in use plus, per hint, the lowest
    suffix not yet known to be taken. Names are only ever added, so every
    suffix below the counter stays taken and starting there finds the
    same name as a scan from [hint.1]. *)
type names = {
  used : (string, unit) Hashtbl.t;
  next : (string, int) Hashtbl.t;
}

let names fn =
  let used = Hashtbl.create 64 in
  List.iter (fun (_, p) -> Hashtbl.replace used p ()) fn.params;
  iter_insns (fun i -> if i.Ins.id <> "" then Hashtbl.replace used i.Ins.id ()) fn;
  { used; next = Hashtbl.create 16 }

let unused names hint =
  if not (Hashtbl.mem names.used hint) then hint
  else begin
    let rec try_n n =
      let candidate = Printf.sprintf "%s.%d" hint n in
      if Hashtbl.mem names.used candidate then try_n (n + 1)
      else begin
        Hashtbl.replace names.next hint n;
        candidate
      end
    in
    try_n (Option.value ~default:1 (Hashtbl.find_opt names.next hint))
  end

let alloc names hint =
  let name = unused names hint in
  Hashtbl.replace names.used name ();
  name

let namer () =
  let by_fn = Hashtbl.create 16 in
  fun fn ->
    match Hashtbl.find_opt by_fn fn.name with
    | Some n -> n
    | None ->
      let n = names fn in
      Hashtbl.replace by_fn fn.name n;
      n

(** Fresh SSA name unique within this function, based on [hint]. *)
let fresh_name fn hint = unused (names fn) hint

let fresh_label fn hint =
  let used = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace used b.label ()) fn.blocks;
  if not (Hashtbl.mem used hint) then hint
  else begin
    let rec try_n n =
      let candidate = Printf.sprintf "%s.%d" hint n in
      if Hashtbl.mem used candidate then try_n (n + 1) else candidate
    in
    try_n 1
  end

(** Map from SSA name to its defining instruction. *)
let def_map fn =
  let defs = Hashtbl.create 64 in
  iter_insns
    (fun i -> if i.Ins.id <> "" then Hashtbl.replace defs i.Ins.id i)
    fn;
  defs

(** Number of uses of each SSA name within [fn]. *)
let use_counts fn =
  let counts = Hashtbl.create 64 in
  let bump = function
    | Ins.Reg (_, n) ->
      Hashtbl.replace counts n (1 + Option.value ~default:0 (Hashtbl.find_opt counts n))
    | _ -> ()
  in
  iter_blocks
    (fun b ->
      List.iter (fun i -> List.iter bump (Ins.operands i)) b.insns;
      List.iter bump (Ins.term_operands b.term))
    fn;
  counts
