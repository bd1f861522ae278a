(** Incremental relinking (see the interface for the design).

    Invariants the patch path preserves, so a patched [exe] is
    indistinguishable from one produced by the full slab link:

    - layout is a pure function of the object list and each object's
      symbol shape: objects claim slabs in link order, symbols claim
      slots in [o_syms] order, so re-placing an object whose shape still
      fits its slab reproduces exactly the addresses a from-scratch slab
      link would assign;
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
  s_comdat : (string, string) Hashtbl.t;  (* COMDAT key -> winning object *)
  s_exe : L.exe;
  s_data_end : int;
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

let reset t = t.state <- None

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

let is_code (s : Objfile.sym) =
  match s.Objfile.s_def with Objfile.Code _ -> true | Objfile.Data _ -> false

let sig_of (obj : Objfile.t) =
  List.map
    (fun (s : Objfile.sym) ->
      {
        g_name = s.Objfile.s_name;
        g_code = is_code s;
        g_global = s.Objfile.s_global;
        g_comdat = s.Objfile.s_comdat;
      })
    obj.Objfile.o_syms

(* ------------------------------------------------------------------ *)
(* Full link: Linker.link semantics, but slab-at-a-time addresses.     *)
(* ------------------------------------------------------------------ *)

(* [hw] holds per-object overflow high-water marks; a listed object's
   slab is sized for max(current shape, high water) so it can absorb
   the growth that made the patch path overflow. *)
let full_link ?(hw : (string, int * int) Hashtbl.t = Hashtbl.create 0) ~host
    (objs : Objfile.t list) =
  (* symbol choice: strong resolution + COMDAT first-definition-wins,
     with Linker's exact duplicate diagnostics *)
  let chosen : (string, Objfile.sym) Hashtbl.t = Hashtbl.create 128 in
  let defined_in : (string, string) Hashtbl.t = Hashtbl.create 128 in
  let comdat = Hashtbl.create 16 in
  let choose (obj : Objfile.t) (s : Objfile.sym) =
    if Hashtbl.mem chosen s.Objfile.s_name then
      raise
        (L.Duplicate_symbol
           {
             symbol = s.Objfile.s_name;
             in_object = obj.Objfile.o_name;
             prior =
               Option.value ~default:"?"
                 (Hashtbl.find_opt defined_in s.Objfile.s_name);
           });
    Hashtbl.replace chosen s.Objfile.s_name s;
    Hashtbl.replace defined_in s.Objfile.s_name obj.Objfile.o_name
  in
  List.iter
    (fun (obj : Objfile.t) ->
      List.iter
        (fun (s : Objfile.sym) ->
          match s.Objfile.s_comdat with
          | Some key ->
            if not (Hashtbl.mem comdat key) then begin
              Hashtbl.replace comdat key obj.Objfile.o_name;
              choose obj s
            end
          | None -> choose obj s)
        obj.Objfile.o_syms)
    objs;
  let exe =
    {
      L.funcs = Hashtbl.create 64;
      sym_addr = Hashtbl.create 128;
      fn_at_addr = Hashtbl.create 64;
      host_at_addr = Hashtbl.create 8;
      host_syms = Hashtbl.create 8;
      image = [];
      data_end = L.data_base;
      symbols_resolved = 0;
    }
  in
  (* slab assignment and symbol placement, object by object *)
  let next_code = ref L.code_base in
  let next_data = ref L.data_base in
  let slabs = Hashtbl.create 16 in
  List.iter
    (fun (obj : Objfile.t) ->
      let mine =
        List.filter
          (fun (s : Objfile.sym) ->
            match Hashtbl.find_opt chosen s.Objfile.s_name with
            | Some s' -> s' == s
            | None -> false)
          obj.Objfile.o_syms
      in
      let ncode = List.length (List.filter is_code mine) in
      let dtotal =
        List.fold_left
          (fun acc (s : Objfile.sym) ->
            match s.Objfile.s_def with
            | Objfile.Data d -> acc + align8 (Bytes.length d.Objfile.d_bytes)
            | Objfile.Code _ -> acc)
          0 mine
      in
      let hw_code, hw_data =
        Option.value ~default:(0, 0) (Hashtbl.find_opt hw obj.Objfile.o_name)
      in
      let code_cap = code_capacity (max ncode hw_code) in
      let data_cap = data_capacity (max dtotal hw_data) in
      let cb = !next_code and db = !next_data in
      next_code := cb + (code_cap * 16);
      next_data := db + data_cap;
      let pc = ref cb and pd = ref db in
      let placed = ref [] and entries = ref [] in
      List.iter
        (fun (s : Objfile.sym) ->
          match s.Objfile.s_def with
          | Objfile.Code mf ->
            let addr = Int64.of_int !pc in
            Hashtbl.replace exe.L.sym_addr s.Objfile.s_name addr;
            Hashtbl.replace exe.L.fn_at_addr addr s.Objfile.s_name;
            Hashtbl.replace exe.L.funcs s.Objfile.s_name mf;
            placed := (s.Objfile.s_name, true, addr) :: !placed;
            pc := !pc + 16
          | Objfile.Data d ->
            let base = align8 !pd in
            Hashtbl.replace exe.L.sym_addr s.Objfile.s_name (Int64.of_int base);
            placed := (s.Objfile.s_name, false, Int64.of_int base) :: !placed;
            entries :=
              {
                e_sym = s.Objfile.s_name;
                e_base = base;
                e_bytes = d.Objfile.d_bytes;
                (* patched copy below *)
                e_relocs = d.Objfile.d_relocs;
              }
              :: !entries;
            pd := base + Bytes.length d.Objfile.d_bytes)
        mine;
      Hashtbl.replace slabs obj.Objfile.o_name
        {
          sl_sig = sig_of obj;
          sl_aliases = obj.Objfile.o_aliases;
          sl_code_base = cb;
          sl_code_cap = code_cap;
          sl_data_base = db;
          sl_data_cap = data_cap;
          sl_placed = List.rev !placed;
          sl_entries = List.rev !entries;
        })
    objs;
  (* host symbols and undefined references — Linker.link verbatim *)
  List.iter (fun h -> Hashtbl.replace exe.L.host_syms h ()) host;
  let next_host = ref (L.code_base - 0x10000) in
  let resolved = ref 0 in
  List.iter
    (fun (obj : Objfile.t) ->
      List.iter
        (fun u ->
          incr resolved;
          if not (Hashtbl.mem exe.L.sym_addr u) then begin
            if Hashtbl.mem exe.L.host_syms u then begin
              let addr = Int64.of_int !next_host in
              Hashtbl.replace exe.L.sym_addr u addr;
              Hashtbl.replace exe.L.host_at_addr addr u;
              next_host := !next_host + 16
            end
            else begin
              let is_alias =
                List.exists
                  (fun (o : Objfile.t) ->
                    List.exists
                      (fun (a, _, _) -> String.equal a u)
                      o.Objfile.o_aliases)
                  objs
              in
              if not is_alias then
                raise
                  (L.Undefined_symbol
                     { symbol = u; referenced_from = obj.Objfile.o_name })
            end
          end)
        obj.Objfile.o_undefined)
    objs;
  (* aliases *)
  List.iter
    (fun (obj : Objfile.t) ->
      List.iter
        (fun (alias, target, _) ->
          match Hashtbl.find_opt exe.L.sym_addr target with
          | Some addr ->
            Hashtbl.replace exe.L.sym_addr alias addr;
            (match Hashtbl.find_opt exe.L.funcs target with
            | Some mf -> Hashtbl.replace exe.L.funcs alias mf
            | None -> ())
          | None ->
            raise
              (L.Undefined_symbol
                 { symbol = target; referenced_from = "alias @" ^ alias }))
        obj.Objfile.o_aliases)
    objs;
  (* patch data relocations on fresh copies; build the reverse index *)
  let rev = Hashtbl.create 64 in
  List.iter
    (fun (obj : Objfile.t) ->
      let sl = Hashtbl.find slabs obj.Objfile.o_name in
      let entries =
        List.map
          (fun e ->
            let bytes = Bytes.copy e.e_bytes in
            List.iter
              (fun (off, target) ->
                incr resolved;
                (match Hashtbl.find_opt exe.L.sym_addr target with
                | Some addr -> Bytes.set_int64_le bytes off addr
                | None ->
                  raise
                    (L.Undefined_symbol
                       { symbol = target; referenced_from = "data relocation" }));
                Hashtbl.replace rev target
                  ((obj.Objfile.o_name, e.e_sym, off)
                  :: Option.value ~default:[] (Hashtbl.find_opt rev target)))
              e.e_relocs;
            { e with e_bytes = bytes })
          sl.sl_entries
      in
      Hashtbl.replace slabs obj.Objfile.o_name { sl with sl_entries = entries })
    objs;
  let names = List.map (fun (o : Objfile.t) -> o.Objfile.o_name) objs in
  let image =
    List.concat_map
      (fun name ->
        List.map
          (fun e -> (e.e_base, e.e_bytes))
          (Hashtbl.find slabs name).sl_entries)
      names
  in
  let exe =
    { exe with L.image; data_end = !next_data; symbols_resolved = !resolved }
  in
  ( {
      s_host = host;
      s_host_next = !next_host;
      s_names = names;
      s_slabs = slabs;
      s_rev = rev;
      s_comdat = comdat;
      s_exe = exe;
      s_data_end = !next_data;
    },
    !resolved )

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

(* Symbols this object contributes under the committed COMDAT-winner
   map (first sym per key within the object, mirroring [choose]). *)
let winners st (obj : Objfile.t) =
  let seen = Hashtbl.create 4 in
  List.filter
    (fun (s : Objfile.sym) ->
      match s.Objfile.s_comdat with
      | None -> true
      | Some k ->
        (match Hashtbl.find_opt st.s_comdat k with
        | Some winner when winner = obj.Objfile.o_name ->
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.replace seen k ();
            true
          end
        | Some _ -> false
        | None -> raise Fallback))
    obj.Objfile.o_syms

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
   [Fallback] when the cheap path cannot be proven safe. *)
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
  let changed_objs =
    List.filter
      (fun (o : Objfile.t) -> Hashtbl.mem changed_set o.Objfile.o_name)
      objs
  in
  if changed_objs = [] && HostSet.is_empty added_host then
    (state, state.s_exe, 0, 0)
  else begin
    Support.Fault.hit "link.patch";
    let old = state.s_exe in
    (* in place with an undo journal: the committed tables are patched
       directly (image bytes stay copy-on-write, so any exe captured
       earlier keeps its byte image); the journal restores every
       binding if anything below raises *)
    let undo = ref [] in
    let sym_addr = old.L.sym_addr in
    let funcs = old.L.funcs in
    let fn_at_addr = old.L.fn_at_addr in
    let slabs = state.s_slabs in
    let rev = state.s_rev in
    let syms_patched = ref 0 and relocs_patched = ref 0 in
    let moved = Hashtbl.create 16 in (* exported name whose address changed *)
    let prev_addr = Hashtbl.create 16 in (* pre-patch address of removed syms *)
    let placed_log = ref [] in (* (name, expected addr) for verification *)
    let slot_log = ref [] in (* (bytes, off, target) for verification *)
    let old_entries = ref [] in (* pre-patch (obj, entries), for the rev index *)
    let host_cursor = ref state.s_host_next in
    try
    (* phase 0: host slab — register added host symbols (journaled like
       every other table write, so a failed patch forgets them too) *)
    HostSet.iter
      (fun h ->
        if not (Hashtbl.mem old.L.host_syms h) then
          journal_set undo old.L.host_syms h ())
      added_host;
    (* phase 1: validate each changed object against its slab, then
       re-place its symbols at the addresses a full slab link would pick *)
    List.iter
      (fun (obj : Objfile.t) ->
        let sl =
          match Hashtbl.find_opt slabs obj.Objfile.o_name with
          | Some sl -> sl
          | None -> raise Fallback
        in
        let nsig = sig_of obj in
        if obj.Objfile.o_aliases <> sl.sl_aliases then raise Fallback;
        if sorted_exports nsig <> sorted_exports sl.sl_sig then raise Fallback;
        if sorted_comdats nsig <> sorted_comdats sl.sl_sig then raise Fallback;
        let mine = winners state obj in
        let ncode = List.length (List.filter is_code mine) in
        let dtotal =
          List.fold_left
            (fun acc (s : Objfile.sym) ->
              match s.Objfile.s_def with
              | Objfile.Data d -> acc + align8 (Bytes.length d.Objfile.d_bytes)
              | Objfile.Code _ -> acc)
            0 mine
        in
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
              journal_remove undo fn_at_addr addr;
              journal_remove undo funcs name
            end)
          sl.sl_placed;
        List.iter
          (fun (a, _, _) ->
            Hashtbl.replace old_names a ();
            stash a;
            journal_remove undo sym_addr a;
            journal_remove undo funcs a)
          sl.sl_aliases;
        (* re-place *)
        let pc = ref sl.sl_code_base and pd = ref sl.sl_data_base in
        let placed = ref [] and entries = ref [] in
        List.iter
          (fun (s : Objfile.sym) ->
            let name = s.Objfile.s_name in
            (* a name owned by another object: let the full link raise
               its Duplicate_symbol diagnostic *)
            if (not (Hashtbl.mem old_names name)) && Hashtbl.mem sym_addr name
            then raise Fallback;
            incr syms_patched;
            match s.Objfile.s_def with
            | Objfile.Code mf ->
              let addr = Int64.of_int !pc in
              journal_set undo sym_addr name addr;
              journal_set undo fn_at_addr addr name;
              journal_set undo funcs name mf;
              placed := (name, true, addr) :: !placed;
              placed_log := (name, addr) :: !placed_log;
              if s.Objfile.s_global && Hashtbl.find_opt prev_addr name <> Some addr
              then Hashtbl.replace moved name ();
              pc := !pc + 16
            | Objfile.Data d ->
              let base = align8 !pd in
              let addr = Int64.of_int base in
              journal_set undo sym_addr name addr;
              placed := (name, false, addr) :: !placed;
              placed_log := (name, addr) :: !placed_log;
              if s.Objfile.s_global && Hashtbl.find_opt prev_addr name <> Some addr
              then Hashtbl.replace moved name ();
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
        old_entries := (obj.Objfile.o_name, sl.sl_entries) :: !old_entries;
        journal_set undo slabs obj.Objfile.o_name
          {
            sl with
            sl_sig = nsig;
            sl_placed = List.rev !placed;
            sl_entries = List.rev !entries;
          })
      changed_objs;
    (* phase 1b: re-register the changed objects' aliases *)
    List.iter
      (fun (obj : Objfile.t) ->
        List.iter
          (fun (alias, target, global) ->
            match Hashtbl.find_opt sym_addr target with
            | Some addr ->
              journal_set undo sym_addr alias addr;
              incr syms_patched;
              placed_log := (alias, addr) :: !placed_log;
              if global && Hashtbl.find_opt prev_addr alias <> Some addr
              then Hashtbl.replace moved alias ();
              (match Hashtbl.find_opt funcs target with
              | Some mf -> journal_set undo funcs alias mf
              | None -> journal_remove undo funcs alias)
            | None -> raise Fallback)
          obj.Objfile.o_aliases)
      changed_objs;
    (* phase 2: every reference of a changed object must resolve. A new
       reference to a host symbol gets a thunk address off the
       persistent host-slab cursor (addresses live only in the symbol
       tables — host calls resolve by name at run time, so placement
       order is unobservable); anything else truly undefined falls back
       so the full link diagnoses it *)
    List.iter
      (fun (obj : Objfile.t) ->
        List.iter
          (fun u ->
            if not (Hashtbl.mem sym_addr u) then
              if Hashtbl.mem old.L.host_syms u then begin
                let addr = Int64.of_int !host_cursor in
                journal_set undo sym_addr u addr;
                journal_set undo old.L.host_at_addr addr u;
                host_cursor := !host_cursor + 16;
                incr syms_patched;
                placed_log := (u, addr) :: !placed_log
              end
              else raise Fallback)
          obj.Objfile.o_undefined)
      changed_objs;
    (* phase 3: patch the changed objects' own relocations on fresh
       copies *)
    List.iter
      (fun (obj : Objfile.t) ->
        let sl = Hashtbl.find slabs obj.Objfile.o_name in
        let entries =
          List.map
            (fun e ->
              let bytes = Bytes.copy e.e_bytes in
              List.iter
                (fun (off, target) ->
                  match Hashtbl.find_opt sym_addr target with
                  | Some addr ->
                    Bytes.set_int64_le bytes off addr;
                    incr relocs_patched;
                    slot_log := (bytes, off, target) :: !slot_log
                  | None -> raise Fallback)
                e.e_relocs;
              { e with e_bytes = bytes })
            sl.sl_entries
        in
        journal_set undo slabs obj.Objfile.o_name { sl with sl_entries = entries })
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
        journal_set undo slabs src { sl with sl_entries = entries })
      inbound;
    (* refresh the reverse index in place: the changed objects' *old*
       relocation lists name exactly the edges to drop, their new
       entries the edges to add — O(changed relocs), not O(all edges) *)
    List.iter
      (fun (name, entries) ->
        List.iter
          (fun e ->
            List.iter
              (fun (_, target) ->
                match Hashtbl.find_opt rev target with
                | None -> ()
                | Some sites -> (
                  match List.filter (fun (src, _, _) -> src <> name) sites with
                  | [] -> journal_remove undo rev target
                  | kept -> journal_set undo rev target kept))
              e.e_relocs)
          entries)
      !old_entries;
    List.iter
      (fun (obj : Objfile.t) ->
        let sl = Hashtbl.find slabs obj.Objfile.o_name in
        List.iter
          (fun e ->
            List.iter
              (fun (off, target) ->
                journal_set undo rev target
                  ((obj.Objfile.o_name, e.e_sym, off)
                  :: Option.value ~default:[] (Hashtbl.find_opt rev target)))
              e.e_relocs)
          sl.sl_entries)
      changed_objs;
    (* torn-patch injection: corrupt one of our own writes *)
    if Support.Fault.torn "link.patch" then begin
      match (!slot_log, !placed_log) with
      | (bytes, off, _) :: _, _ ->
        Bytes.set_int64_le bytes off
          (Int64.add (Bytes.get_int64_le bytes off) 0xF1L)
      | [], (name, addr) :: _ ->
        journal_set undo sym_addr name (Int64.add addr 8L)
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
      List.concat_map
        (fun name ->
          List.map
            (fun e -> (e.e_base, e.e_bytes))
            (Hashtbl.find slabs name).sl_entries)
        state.s_names
    in
    let exe =
      {
        old with
        L.funcs;
        sym_addr;
        fn_at_addr;
        image;
        symbols_resolved = !syms_patched + !relocs_patched;
      }
    in
    ( {
        state with
        s_slabs = slabs;
        s_rev = rev;
        s_exe = exe;
        s_host = host;
        s_host_next = !host_cursor;
      },
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
        | Fallback ->
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
    let state, resolved = full_link ~hw:t.hw ~host objs in
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
