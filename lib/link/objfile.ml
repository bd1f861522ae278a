(** Object-file format: the output of compiling one module (one fragment).

    A symbol is either machine code or initialized data with relocations
    (8-byte absolute slots naming other symbols). An alias is a second
    name for a definition in the *same* object — the innate constraint
    from paper Section 2.3 is enforced here: emitting an alias whose base
    is not defined in this object is an error. *)

type data = {
  d_bytes : Bytes.t;
  d_relocs : (int * string) list;  (** (byte offset, target symbol) *)
  d_const : bool;
}

type def = Code of Codegen.Mach.mfunc | Data of data

type sym = {
  s_name : string;
  s_global : bool;  (** exported (External linkage) *)
  s_def : def;
  s_comdat : string option;
}

type t = {
  o_name : string;
  o_syms : sym list;
  o_aliases : (string * string * bool) list;  (** (alias, target, global) *)
  o_undefined : string list;  (** referenced but not defined here *)
}

exception Emit_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Emit_error s)) fmt

let data_of_init (init : Ir.Modul.init) ~const =
  match init with
  | Ir.Modul.Bytes s ->
    { d_bytes = Bytes.of_string s; d_relocs = []; d_const = const }
  | Ir.Modul.Words (ty, ws) ->
    let w = Ir.Types.size_of ty in
    let b = Bytes.make (max 1 (w * List.length ws)) '\x00' in
    List.iteri
      (fun i v ->
        match w with
        | 1 -> Bytes.set b i (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
        | 2 -> Bytes.set_uint16_le b (i * 2) (Int64.to_int (Int64.logand v 0xFFFFL))
        | 4 -> Bytes.set_int32_le b (i * 4) (Int64.to_int32 v)
        | 8 -> Bytes.set_int64_le b (i * 8) v
        | _ -> error "bad word size %d" w)
      ws;
    { d_bytes = b; d_relocs = []; d_const = const }
  | Ir.Modul.Symbols ss ->
    let b = Bytes.make (max 1 (8 * List.length ss)) '\x00' in
    { d_bytes = b; d_relocs = List.mapi (fun i s -> (i * 8, s)) ss; d_const = const }
  | Ir.Modul.Zero n -> { d_bytes = Bytes.make (max 1 n) '\x00'; d_relocs = []; d_const = const }
  | Ir.Modul.Extern -> error "cannot emit extern declaration as data"

(** Compile a module to an object file. The module must verify.

    [tier] selects the backend: [0] routes every function through the
    single-pass baseline emitter ({!Codegen.Baseline}), anything else
    (default [1]) through the optimizing backend. [cost] accumulates
    the modelled backend work (see {!Codegen.Emit.compile_func}). *)
let of_module ?(tier = 1) ?cost (m : Ir.Modul.t) =
  let compile =
    if tier = 0 then Codegen.Baseline.compile_func ?cost
    else Codegen.Emit.compile_func ?cost
  in
  let syms = ref [] in
  let aliases = ref [] in
  let defined = Hashtbl.create 32 in
  List.iter
    (fun gv ->
      match gv with
      | Ir.Modul.Fun f when not (Ir.Func.is_declaration f) ->
        let mf = compile f in
        Hashtbl.replace defined f.Ir.Func.name ();
        syms :=
          {
            s_name = f.Ir.Func.name;
            s_global = f.Ir.Func.linkage = Ir.Func.External;
            s_def = Code mf;
            s_comdat = f.Ir.Func.comdat;
          }
          :: !syms
      | Ir.Modul.Fun _ -> ()
      | Ir.Modul.Var v when v.Ir.Modul.ginit <> Ir.Modul.Extern ->
        Hashtbl.replace defined v.Ir.Modul.gname ();
        syms :=
          {
            s_name = v.Ir.Modul.gname;
            s_global = v.Ir.Modul.glinkage = Ir.Func.External;
            s_def = Data (data_of_init v.Ir.Modul.ginit ~const:v.Ir.Modul.gconst);
            s_comdat = v.Ir.Modul.gcomdat;
          }
          :: !syms
      | Ir.Modul.Var _ -> ()
      | Ir.Modul.Alias a ->
        aliases :=
          (a.Ir.Modul.aname, a.Ir.Modul.atarget, a.Ir.Modul.alinkage = Ir.Func.External)
          :: !aliases)
    (Ir.Modul.globals m);
  (* innate constraint: alias bases must be defined in this object *)
  List.iter
    (fun (alias, target, _) ->
      if not (Hashtbl.mem defined target) then
        error "alias @%s: base symbol @%s is not defined in module %s" alias target
          m.Ir.Modul.mname)
    !aliases;
  (* undefined references *)
  let undef = ref [] in
  List.iter
    (fun gv ->
      Ir.Uses.SSet.iter
        (fun s ->
          if (not (Hashtbl.mem defined s)) && not (List.mem s !undef) then
            undef := s :: !undef)
        (Ir.Uses.of_gvalue gv))
    (Ir.Modul.globals m);
  {
    o_name = m.Ir.Modul.mname;
    o_syms = List.rev !syms;
    o_aliases = List.rev !aliases;
    o_undefined = List.rev !undef;
  }
