(** Linking and incremental relinking (see the interface for the design).

    Invariants the patch path preserves, so a patched [exe] is
    indistinguishable from one produced by the full slab link:

    - layout is a pure function of the object list and each object's
      symbol shape: objects claim slabs in link order, symbols claim
      slots in [o_syms] order, so re-placing an object whose shape still
      fits its slab reproduces exactly the addresses a from-scratch slab
      link would assign — both paths place, bind and relocate through
      the same routines below;
    - a failed patch is observably a no-op: the symbol tables are
      patched in place (O(changed) bindings, not O(program) copies)
      under an undo journal that restores every touched binding before
      any exception escapes; byte images stay copy-on-write, so an exe
      captured before a successful patch keeps its image, and commit is
      a single field assignment after verification;
    - every address the VM can observe flows through [sym_addr] /
      [funcs] / [fn_at_addr] / patched data slots, all of which are
      rebuilt or patched here; code is position-independent (calls and
      [Osym] resolve by name at run time), so only data slots hold raw
      addresses and only those need the reverse index.

    A relink yields only the new executable: the next VM loads it. *)

module L = Linker

let align8 n = (n + 7) / 8 * 8

let rec next_pow2 n = if n <= 1 then 1 else 2 * next_pow2 ((n + 1) / 2)

(* Growth padding: room to roughly double before a slab overflows, with
   a floor so tiny fragments survive a few added clones/tables. *)
let code_capacity n = if n = 0 then 0 else max 4 (next_pow2 n)
let data_capacity n = if n = 0 then 0 else max 64 (next_pow2 n)

(** Shape of one defined symbol, for fallback detection. *)
type sig_item = {
  g_name : string;
  g_code : bool;
  g_global : bool;
  g_comdat : string option;
}

(** One data blob placed in the image. [e_bytes] is the patched copy
    (shared with [exe.image]); it is replaced, never mutated. *)
type entry = {
  e_sym : string;
  e_base : int;
  e_bytes : Bytes.t;
  e_relocs : (int * string) list;
}

type slab = {
  sl_sig : sig_item list;
  sl_aliases : (string * string * bool) list;
  sl_code_base : int;
  sl_code_cap : int;  (* 16-byte slots *)
  sl_data_base : int;
  sl_data_cap : int;  (* bytes *)
  sl_placed : (string * bool * int64) list;
      (* name, is_code, addr — placement order; for stale removal *)
  sl_entries : entry list;
}

type state = {
  s_host : string list;
  s_host_next : int;
      (* host-symbol slab cursor: next free thunk address (16-byte
         steps, below code_base). Persisting it lets a later patch hand
         a fresh host reference an address without relinking *)
  s_names : string list;  (* object names in link order *)
  s_slabs : (string, slab) Hashtbl.t;
  s_rev : (string, (string * string * int) list) Hashtbl.t;
      (* reverse relocation index: target symbol ->
         (referencing object, data symbol, byte offset) sites *)
  s_comdat : (string, int) Hashtbl.t;
      (* COMDAT key -> link-order index of the winning object *)
  s_exe : L.exe;
}

type link_stats = {
  ls_incremental : bool;
  ls_symbols_patched : int;
  ls_relocs_patched : int;
  ls_resolved : int;
  ls_cost : int;
}

type stats = {
  mutable st_full : int;
  mutable st_incremental : int;
  mutable st_fallbacks : int;
  mutable st_symbols_patched : int;
  mutable st_relocs_patched : int;
  mutable st_overflows : int;
  mutable st_compactions : int;
}

type slab_info = {
  si_obj : string;
  si_code_base : int;
  si_code_cap : int;
  si_data_base : int;
  si_data_cap : int;
}

type t = {
  mutable state : state option;
  stats : stats;
  mutable last : link_stats;
  hw : (string, int * int) Hashtbl.t;
      (* overflow high-water marks: object name -> (code slots, data
         bytes) the slab must fit on the next full link. Inflating the
         fallback's capacities this way makes repeat overflows of a
         growing object patch instead of falling back forever *)
  mutable ov_since_compact : int;
}

let no_link =
  {
    ls_incremental = false;
    ls_symbols_patched = 0;
    ls_relocs_patched = 0;
    ls_resolved = 0;
    ls_cost = 0;
  }

let create () =
  {
    state = None;
    stats =
      {
        st_full = 0;
        st_incremental = 0;
        st_fallbacks = 0;
        st_symbols_patched = 0;
        st_relocs_patched = 0;
        st_overflows = 0;
        st_compactions = 0;
      };
    last = no_link;
    hw = Hashtbl.create 8;
    ov_since_compact = 0;
  }

let stats t = t.stats
let last t = t.last

(* Overflows tolerated before the inflated high-water capacities are
   judged pathological and dropped (slab compaction). *)
let compact_threshold = 8

(** Drop the high-water capacity inflation: the next full link lays
    slabs out tight again (a compaction). Also drops the link state —
    inflated slab geometry cannot be patched back down in place. *)
let compact t =
  Hashtbl.reset t.hw;
  t.ov_since_compact <- 0;
  t.stats.st_compactions <- t.stats.st_compactions + 1;
  t.state <- None

let slabs t =
  match t.state with
  | None -> []
  | Some st ->
    List.map
      (fun name ->
        let sl = Hashtbl.find st.s_slabs name in
        {
          si_obj = name;
          si_code_base = sl.sl_code_base;
          si_code_cap = sl.sl_code_cap;
          si_data_base = sl.sl_data_base;
          si_data_cap = sl.sl_data_cap;
        })
      st.s_names

let sig_of (obj : Objfile.t) =
  List.map
    (fun (s : Objfile.sym) ->
      {
        g_name = s.Objfile.s_name;
        g_code =
          (match s.Objfile.s_def with
          | Objfile.Code _ -> true
          | Objfile.Data _ -> false);
        g_global = s.Objfile.s_global;
        g_comdat = s.Objfile.s_comdat;
      })
    obj.Objfile.o_syms

(* ------------------------------------------------------------------ *)
(* Link routines, shared by the full link and the patch path           *)
(* ------------------------------------------------------------------ *)

(* Table writes: direct in a full link; journaled in a patch, so a
   failed patch can restore every binding it touched. *)
type setter = { set : 'k 'v. ('k, 'v) Hashtbl.t -> 'k -> 'v -> unit }

let direct = { set = Hashtbl.replace }

(* A binding hook: (name, exported, address) of every symbol, alias or
   host thunk a routine binds, seen before the binding is written. *)
let ignore_binding _ _ _ = ()

(* Symbols the object at link-order index [i] contributes under the
   COMDAT-winner map [comdat] (key -> index of the winning object):
   every non-COMDAT symbol, plus the first symbol of each group the
   object won. *)
let contributed comdat i (obj : Objfile.t) =
  let won = ref [] in
  List.filter
    (fun (s : Objfile.sym) ->
      match s.Objfile.s_comdat with
      | None -> true
      | Some k ->
        Hashtbl.find_opt comdat k = Some i
        && (not (List.mem k !won))
        && (won := k :: !won;
            true))
    obj.Objfile.o_syms

(* Symbol choice: strong-symbol resolution with COMDAT folding (the
   first definition of a group wins, later ones are discarded). Returns
   the COMDAT-winner map and each object with the symbols it
   contributes, in link order.
   @raise Linker.Duplicate_symbol on a collision outside a shared group *)
let choose objs =
  let comdat = Hashtbl.create 16 in
  List.iteri
    (fun i (obj : Objfile.t) ->
      List.iter
        (fun (s : Objfile.sym) ->
          match s.Objfile.s_comdat with
          | Some k when not (Hashtbl.mem comdat k) -> Hashtbl.replace comdat k i
          | _ -> ())
        obj.Objfile.o_syms)
    objs;
  let defined_in = Hashtbl.create 128 in
  let chosen =
    List.mapi
      (fun i (obj : Objfile.t) ->
        let mine = contributed comdat i obj in
        List.iter
          (fun (s : Objfile.sym) ->
            match Hashtbl.find_opt defined_in s.Objfile.s_name with
            | Some prior ->
              raise
                (L.Duplicate_symbol
                   { symbol = s.Objfile.s_name; in_object = obj.Objfile.o_name; prior })
            | None -> Hashtbl.replace defined_in s.Objfile.s_name obj.Objfile.o_name)
          mine;
        (obj, mine))
      objs
  in
  (comdat, chosen)

(* The exact size of a symbol list: (code slots, 8-aligned data bytes). *)
let shape mine =
  List.fold_left
    (fun (ncode, dtotal) (s : Objfile.sym) ->
      match s.Objfile.s_def with
      | Objfile.Code _ -> (ncode + 1, dtotal)
      | Objfile.Data d -> (ncode, dtotal + align8 (Bytes.length d.Objfile.d_bytes)))
    (0, 0) mine

(* Placement: lay [mine] out in [o_syms] order, code in consecutive
   16-byte slots from [cb], data at 8-aligned offsets from [db], and
   bind each symbol in [exe] through [w]. Returns the placement log and
   the data entries, whose bytes are not relocated yet. *)
let place w (exe : L.exe) ~note ~cb ~db mine =
  let pc = ref cb and pd = ref db in
  let placed = ref [] and entries = ref [] in
  List.iter
    (fun (s : Objfile.sym) ->
      let name = s.Objfile.s_name in
      match s.Objfile.s_def with
      | Objfile.Code mf ->
        let addr = Int64.of_int !pc in
        note name s.Objfile.s_global addr;
        w.set exe.L.sym_addr name addr;
        w.set exe.L.fn_at_addr addr name;
        w.set exe.L.funcs name mf;
        placed := (name, true, addr) :: !placed;
        pc := !pc + 16
      | Objfile.Data d ->
        let base = align8 !pd in
        let addr = Int64.of_int base in
        note name s.Objfile.s_global addr;
        w.set exe.L.sym_addr name addr;
        placed := (name, false, addr) :: !placed;
        entries :=
          {
            e_sym = name;
            e_base = base;
            e_bytes = d.Objfile.d_bytes;
            e_relocs = d.Objfile.d_relocs;
          }
          :: !entries;
        pd := base + Bytes.length d.Objfile.d_bytes)
    mine;
  (List.rev !placed, List.rev !entries)

(* Host-symbol binding: each reference of [obj] that nothing defines
   yet and the runtime provides gets the next thunk address off the
   host-slab [cursor] (16-byte steps below the code base). Host calls
   resolve by name at run time, so only the cursor order differs between
   a full link and a patch.
   @raise Linker.Undefined_symbol for a reference that is neither, unless
   it names an alias of some object in [objs] (bound after this step) *)
let bind_hosts w (exe : L.exe) ~note ~cursor objs (obj : Objfile.t) =
  List.iter
    (fun u ->
      if not (Hashtbl.mem exe.L.sym_addr u) then
        if Hashtbl.mem exe.L.host_syms u then begin
          let addr = Int64.of_int !cursor in
          note u false addr;
          w.set exe.L.sym_addr u addr;
          w.set exe.L.host_at_addr addr u;
          cursor := !cursor + 16
        end
        else if
          not
            (List.exists
               (fun (o : Objfile.t) ->
                 List.exists (fun (a, _, _) -> String.equal a u) o.Objfile.o_aliases)
               objs)
        then
          raise
            (L.Undefined_symbol { symbol = u; referenced_from = obj.Objfile.o_name }))
    obj.Objfile.o_undefined

(* Alias binding: each alias of [obj] takes its target's address; an
   alias to a function is callable.
   @raise Linker.Undefined_symbol for a target nothing defines *)
let bind_aliases w (exe : L.exe) ~note (obj : Objfile.t) =
  List.iter
    (fun (alias, target, global) ->
      match Hashtbl.find_opt exe.L.sym_addr target with
      | Some addr ->
        note alias global addr;
        w.set exe.L.sym_addr alias addr;
        Option.iter (w.set exe.L.funcs alias) (Hashtbl.find_opt exe.L.funcs target)
      | None ->
        raise
          (L.Undefined_symbol { symbol = target; referenced_from = "alias @" ^ alias }))
    obj.Objfile.o_aliases

(* Relocation patching: fresh copies of object [name]'s data entries
   with every slot holding its target's address. Each slot adds its
   edge to the reverse index [rev] and is passed to [slot].
   @raise Linker.Undefined_symbol for a target nothing defines *)
let relocate w (exe : L.exe) ~rev ~slot name entries =
  List.map
    (fun e ->
      let bytes = Bytes.copy e.e_bytes in
      List.iter
        (fun (off, target) ->
          match Hashtbl.find_opt exe.L.sym_addr target with
          | Some addr ->
            Bytes.set_int64_le bytes off addr;
            w.set rev target
              ((name, e.e_sym, off)
              :: Option.value ~default:[] (Hashtbl.find_opt rev target));
            slot bytes off target
          | None ->
            raise
              (L.Undefined_symbol
                 { symbol = target; referenced_from = "data relocation" }))
        e.e_relocs;
      { e with e_bytes = bytes })
    entries

(* A slab's share of the image: its data entries. *)
let slab_image sl = List.map (fun e -> (e.e_base, e.e_bytes)) sl.sl_entries

(* ------------------------------------------------------------------ *)
(* Full link                                                           *)
(* ------------------------------------------------------------------ *)

(* Link [objs] into fresh slabs, one per object in link order; [cap name
   shape] gives the capacity (code slots, data bytes) of [name]'s slab
   from its exact [shape]. Returns the link state and the resolution
   work (references plus relocation slots). The image is built from the
   slabs in link order, so a one-shot link of objects that share a name
   is still whole; only the link state, keyed by name, needs unique
   names. *)
let full_link ~cap ~host (objs : Objfile.t list) =
  let comdat, chosen = choose objs in
  let exe =
    {
      L.funcs = Hashtbl.create 64;
      sym_addr = Hashtbl.create 128;
      fn_at_addr = Hashtbl.create 64;
      host_at_addr = Hashtbl.create 8;
      host_syms = Hashtbl.create 8;
      image = [];
    }
  in
  let next_code = ref L.code_base and next_data = ref L.data_base in
  let laid_out =
    List.map
      (fun ((obj : Objfile.t), mine) ->
        let code_cap, data_cap = cap obj.Objfile.o_name (shape mine) in
        let cb = !next_code and db = !next_data in
        next_code := cb + (code_cap * 16);
        next_data := db + data_cap;
        let placed, entries = place direct exe ~note:ignore_binding ~cb ~db mine in
        ( obj,
          {
            sl_sig = sig_of obj;
            sl_aliases = obj.Objfile.o_aliases;
            sl_code_base = cb;
            sl_code_cap = code_cap;
            sl_data_base = db;
            sl_data_cap = data_cap;
            sl_placed = placed;
            sl_entries = entries;
          } ))
      chosen
  in
  List.iter (fun h -> Hashtbl.replace exe.L.host_syms h ()) host;
  let cursor = ref (L.code_base - 0x10000) in
  let resolved = ref 0 in
  List.iter
    (fun (obj : Objfile.t) ->
      resolved := !resolved + List.length obj.Objfile.o_undefined;
      bind_hosts direct exe ~note:ignore_binding ~cursor objs obj)
    objs;
  List.iter (bind_aliases direct exe ~note:ignore_binding) objs;
  let rev = Hashtbl.create 64 in
  let slot _ _ _ = incr resolved in
  let linked =
    List.map
      (fun ((obj : Objfile.t), sl) ->
        let name = obj.Objfile.o_name in
        let entries = relocate direct exe ~rev ~slot name sl.sl_entries in
        (name, { sl with sl_entries = entries }))
      laid_out
  in
  let slabs = Hashtbl.create 16 in
  List.iter (fun (name, sl) -> Hashtbl.replace slabs name sl) linked;
  let image = List.concat_map (fun (_, sl) -> slab_image sl) linked in
  ( {
      s_host = host;
      s_host_next = !cursor;
      s_names = List.map (fun (o : Objfile.t) -> o.Objfile.o_name) objs;
      s_slabs = slabs;
      s_rev = rev;
      s_comdat = comdat;
      s_exe = { exe with L.image };
    },
    !resolved )

let link ?(host = []) objs =
  Support.Fault.hit "link";
  (fst (full_link ~cap:(fun _ shape -> shape) ~host objs)).s_exe

(* ------------------------------------------------------------------ *)
(* Patch path                                                          *)
(* ------------------------------------------------------------------ *)

exception Fallback

(* A changed object outgrew its slab: (object, code slots needed, data
   bytes needed). Distinct from [Fallback] so the driver can record the
   high-water shape before taking the full-link path. *)
exception Overflow of string * int * int

module HostSet = Set.Make (String)

let sorted_exports items =
  List.sort compare
    (List.filter_map
       (fun i -> if i.g_global then Some (i.g_name, i.g_code) else None)
       items)

let sorted_comdats items =
  List.sort compare (List.filter_map (fun i -> i.g_comdat) items)

(* Journaled in-place table updates. The patch path mutates the
   committed tables directly — touching O(changed) bindings instead of
   copying O(program) tables — and records the inverse of every write;
   on any exception the journal replays LIFO and restores each binding,
   so a failed patch is observably a no-op. *)
let journal_set undo tbl k v =
  let prev = Hashtbl.find_opt tbl k in
  undo :=
    (fun () ->
      match prev with
      | Some p -> Hashtbl.replace tbl k p
      | None -> Hashtbl.remove tbl k)
    :: !undo;
  Hashtbl.replace tbl k v

let journal_remove undo tbl k =
  match Hashtbl.find_opt tbl k with
  | None -> ()
  | Some p ->
    undo := (fun () -> Hashtbl.replace tbl k p) :: !undo;
    Hashtbl.remove tbl k

(* Returns [(state', exe, symbols_patched, relocs_patched)]; raises
   [Fallback] (or a diagnostic of the shared routines) when the cheap
   path cannot be proven safe. *)
let incremental_link state ~host ~changed (objs : Objfile.t list) =
  (* host compared as a *set*: an added symbol gets a thunk address off
     the persistent host-slab cursor below; a removed one would leave a
     stale resolvable name behind, so only removal forces the full
     link *)
  let old_host = HostSet.of_list state.s_host in
  let new_host = HostSet.of_list host in
  if not (HostSet.subset old_host new_host) then raise Fallback;
  let added_host = HostSet.diff new_host old_host in
  let names = List.map (fun (o : Objfile.t) -> o.Objfile.o_name) objs in
  if names <> state.s_names then raise Fallback;
  let changed_set = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace changed_set n ()) changed;
  (* the changed objects with their link-order index *)
  let changed_at = ref [] in
  List.iteri
    (fun i (o : Objfile.t) ->
      if Hashtbl.mem changed_set o.Objfile.o_name then
        changed_at := (i, o) :: !changed_at)
    objs;
  let changed_at = List.rev !changed_at in
  let changed_objs = List.map snd changed_at in
  if changed_objs = [] && HostSet.is_empty added_host then
    (state, state.s_exe, 0, 0)
  else begin
    Support.Fault.hit "link.patch";
    let exe = state.s_exe in
    (* in place with an undo journal: the committed tables are patched
       directly (image bytes stay copy-on-write, so any exe captured
       earlier keeps its byte image); the journal restores every
       binding if anything below raises *)
    let undo = ref [] in
    let w = { set = (fun tbl k v -> journal_set undo tbl k v) } in
    let sym_addr = exe.L.sym_addr in
    let slabs = state.s_slabs in
    let rev = state.s_rev in
    let syms_patched = ref 0 and relocs_patched = ref 0 in
    let moved = Hashtbl.create 16 in (* exported name whose address changed *)
    let prev_addr = Hashtbl.create 16 in (* pre-patch address of removed syms *)
    let placed_log = ref [] in (* (name, expected addr) for verification *)
    let slot_log = ref [] in (* (bytes, off, target) for verification *)
    let cursor = ref state.s_host_next in
    let note name global addr =
      incr syms_patched;
      placed_log := (name, addr) :: !placed_log;
      if global && Hashtbl.find_opt prev_addr name <> Some addr then
        Hashtbl.replace moved name ()
    in
    try
    (* phase 0: host slab — register added host symbols (journaled like
       every other table write, so a failed patch forgets them too) *)
    HostSet.iter
      (fun h -> if not (Hashtbl.mem exe.L.host_syms h) then w.set exe.L.host_syms h ())
      added_host;
    (* phase 1: validate each changed object against its slab, then
       re-place its symbols at the addresses a full slab link would pick *)
    List.iter
      (fun (i, (obj : Objfile.t)) ->
        let sl =
          match Hashtbl.find_opt slabs obj.Objfile.o_name with
          | Some sl -> sl
          | None -> raise Fallback
        in
        let nsig = sig_of obj in
        if obj.Objfile.o_aliases <> sl.sl_aliases then raise Fallback;
        if sorted_exports nsig <> sorted_exports sl.sl_sig then raise Fallback;
        if sorted_comdats nsig <> sorted_comdats sl.sl_sig then raise Fallback;
        let mine = contributed state.s_comdat i obj in
        let ncode, dtotal = shape mine in
        if ncode > sl.sl_code_cap || dtotal > sl.sl_data_cap then
          raise (Overflow (obj.Objfile.o_name, ncode, dtotal));
        (* remove the stale placement, remembering each pre-patch
           address (the in-place table can no longer answer that) *)
        let old_names = Hashtbl.create 16 in
        let stash name =
          match Hashtbl.find_opt sym_addr name with
          | Some a -> Hashtbl.replace prev_addr name a
          | None -> ()
        in
        List.iter
          (fun (name, code, addr) ->
            Hashtbl.replace old_names name ();
            stash name;
            journal_remove undo sym_addr name;
            if code then begin
              journal_remove undo exe.L.fn_at_addr addr;
              journal_remove undo exe.L.funcs name
            end)
          sl.sl_placed;
        List.iter
          (fun (a, _, _) ->
            Hashtbl.replace old_names a ();
            stash a;
            journal_remove undo sym_addr a;
            journal_remove undo exe.L.funcs a)
          sl.sl_aliases;
        (* drop the object's reverse-index edges; relocating its new
           entries below adds the current ones *)
        List.iter
          (fun e ->
            List.iter
              (fun (_, target) ->
                match Hashtbl.find_opt rev target with
                | None -> ()
                | Some sites -> (
                  match
                    List.filter (fun (src, _, _) -> src <> obj.Objfile.o_name) sites
                  with
                  | [] -> journal_remove undo rev target
                  | kept -> journal_set undo rev target kept))
              e.e_relocs)
          sl.sl_entries;
        (* re-place; a name the object did not own before, or defines
           twice, collides: fall back so the full link raises its
           Duplicate_symbol diagnostic *)
        let claim name global addr =
          if (not (Hashtbl.mem old_names name)) && Hashtbl.mem sym_addr name then
            raise Fallback;
          Hashtbl.remove old_names name;
          note name global addr
        in
        let placed, entries =
          place w exe ~note:claim ~cb:sl.sl_code_base ~db:sl.sl_data_base mine
        in
        w.set slabs obj.Objfile.o_name
          { sl with sl_sig = nsig; sl_placed = placed; sl_entries = entries })
      changed_at;
    (* phase 1b: re-register the changed objects' aliases *)
    List.iter (bind_aliases w exe ~note) changed_objs;
    (* phase 2: every reference of a changed object must resolve; a new
       host reference gets the next thunk address off the persistent
       host-slab cursor, anything else falls back so the full link
       diagnoses it *)
    List.iter (bind_hosts w exe ~note ~cursor objs) changed_objs;
    (* phase 3: patch the changed objects' own relocations on fresh
       copies *)
    List.iter
      (fun (obj : Objfile.t) ->
        let sl = Hashtbl.find slabs obj.Objfile.o_name in
        let entries =
          relocate w exe ~rev obj.Objfile.o_name sl.sl_entries
            ~slot:(fun bytes off target ->
              incr relocs_patched;
              slot_log := (bytes, off, target) :: !slot_log)
        in
        w.set slabs obj.Objfile.o_name { sl with sl_entries = entries })
      changed_objs;
    (* phase 4: inbound fix-up — the reverse index names every slot in
       an *unchanged* object that stores a moved symbol's address;
       copy-on-write only the entries that actually hold such a slot *)
    let inbound = Hashtbl.create 8 in (* src object -> (sym, off, target) *)
    Hashtbl.iter
      (fun target () ->
        List.iter
          (fun (src, sym, off) ->
            if not (Hashtbl.mem changed_set src) then
              Hashtbl.replace inbound src
                ((sym, off, target)
                :: Option.value ~default:[] (Hashtbl.find_opt inbound src)))
          (Option.value ~default:[] (Hashtbl.find_opt rev target)))
      moved;
    Hashtbl.iter
      (fun src sites ->
        let sl = Hashtbl.find slabs src in
        let by_sym = Hashtbl.create 4 in
        List.iter
          (fun (sym, off, target) ->
            Hashtbl.replace by_sym sym
              ((off, target)
              :: Option.value ~default:[] (Hashtbl.find_opt by_sym sym)))
          sites;
        let entries =
          List.map
            (fun e ->
              match Hashtbl.find_opt by_sym e.e_sym with
              | None -> e
              | Some slots ->
                let bytes = Bytes.copy e.e_bytes in
                List.iter
                  (fun (off, target) ->
                    let addr = Hashtbl.find sym_addr target in
                    Bytes.set_int64_le bytes off addr;
                    incr relocs_patched;
                    slot_log := (bytes, off, target) :: !slot_log)
                  slots;
                { e with e_bytes = bytes })
            sl.sl_entries
        in
        w.set slabs src { sl with sl_entries = entries })
      inbound;
    (* torn-patch injection: corrupt one of our own writes *)
    if Support.Fault.torn "link.patch" then begin
      match (!slot_log, !placed_log) with
      | (bytes, off, _) :: _, _ ->
        Bytes.set_int64_le bytes off
          (Int64.add (Bytes.get_int64_le bytes off) 0xF1L)
      | [], (name, addr) :: _ ->
        w.set sym_addr name (Int64.add addr 8L)
      | [], [] -> ()
    end;
    (* verify-after-patch: every re-placed symbol and every rewritten
       slot must read back consistent; this is what turns a torn write
       into a clean link failure instead of a corrupt image *)
    List.iter
      (fun (name, addr) ->
        if Hashtbl.find_opt sym_addr name <> Some addr then
          raise
            (L.Link_error
               (Printf.sprintf "torn patch detected: symbol @%s" name)))
      !placed_log;
    List.iter
      (fun (bytes, off, target) ->
        let expect =
          match Hashtbl.find_opt sym_addr target with
          | Some a -> a
          | None -> Int64.minus_one
        in
        if Bytes.get_int64_le bytes off <> expect then
          raise
            (L.Link_error
               (Printf.sprintf "torn patch detected: relocation to @%s" target)))
      !slot_log;
    let image =
      List.concat_map (fun name -> slab_image (Hashtbl.find slabs name)) state.s_names
    in
    let exe = { exe with L.image } in
    ( { state with s_exe = exe; s_host = host; s_host_next = !cursor },
      exe,
      !syms_patched,
      !relocs_patched )
    with e ->
      (* replay the journal LIFO: every binding the patch touched is
         restored before the exception (Fallback, a diagnostic, a
         detected torn write, an injected fault) escapes *)
      List.iter (fun f -> f ()) !undo;
      raise e
  end

let relink ?(incremental = true) ?(host = []) t ~changed
    (objs : Objfile.t list) =
  Support.Fault.hit "link";
  let patched =
    if not incremental then None
    else
      match t.state with
      | None -> None
      | Some state -> (
        try Some (incremental_link state ~host ~changed objs)
        with
        | Fallback | L.Undefined_symbol _ ->
          t.stats.st_fallbacks <- t.stats.st_fallbacks + 1;
          None
        | Overflow (name, ncode, dtotal) ->
          (* record the shape that burst the slab so the fallback full
             link below over-allocates it; when overflows keep coming
             despite the inflation, the layout is judged pathological
             and compacted (high waters dropped, tight relayout) *)
          t.stats.st_fallbacks <- t.stats.st_fallbacks + 1;
          t.stats.st_overflows <- t.stats.st_overflows + 1;
          let pc, pd =
            Option.value ~default:(0, 0) (Hashtbl.find_opt t.hw name)
          in
          Hashtbl.replace t.hw name (max pc ncode, max pd dtotal);
          t.ov_since_compact <- t.ov_since_compact + 1;
          if t.ov_since_compact >= compact_threshold then compact t;
          None)
  in
  match patched with
  | Some (state, exe, sp, rp) ->
    t.state <- Some state;
    t.stats.st_incremental <- t.stats.st_incremental + 1;
    t.stats.st_symbols_patched <- t.stats.st_symbols_patched + sp;
    t.stats.st_relocs_patched <- t.stats.st_relocs_patched + rp;
    t.last <-
      {
        ls_incremental = true;
        ls_symbols_patched = sp;
        ls_relocs_patched = rp;
        ls_resolved = 0;
        ls_cost = 200 + (40 * (sp + rp));
      };
    exe
  | None ->
    (* slabs padded for growth, and for any recorded high-water shape *)
    let cap name (ncode, dtotal) =
      let hw_code, hw_data =
        Option.value ~default:(0, 0) (Hashtbl.find_opt t.hw name)
      in
      (code_capacity (max ncode hw_code), data_capacity (max dtotal hw_data))
    in
    let state, resolved = full_link ~cap ~host objs in
    (* one slab per name: two objects sharing one would share a slab *)
    if Hashtbl.length state.s_slabs <> List.length objs then
      invalid_arg "Incremental.relink: two objects share a name";
    t.state <- Some state;
    t.stats.st_full <- t.stats.st_full + 1;
    t.last <-
      {
        ls_incremental = false;
        ls_symbols_patched = 0;
        ls_relocs_patched = 0;
        ls_resolved = resolved;
        ls_cost = 2000 + (40 * resolved);
      };
    state.s_exe
