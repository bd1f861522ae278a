(** PatchManager: dynamic adding, deleting and changing of probes (paper
    Section 4). Tracks which probes changed since the last recompilation
    so the scheduler can bound the recompilation scope.

    Every dirty-state query is O(changed), not O(probes): the [changed]
    set is a hashtable of probe ids, and a persistent by-target index
    maps a symbol to the probes registered against it so back-propagation
    (Algorithm 2, lines 13-17) can collect a fragment's probes without
    filtering the whole probe list. *)

type t = {
  mutable probes : Probe.t list;  (** newest first *)
  by_id : (int, Probe.t) Hashtbl.t;
  by_target : (string, Probe.t list) Hashtbl.t;
      (** symbol -> live probes targeting it, newest first; maintained by
          [add]/[remove] so it is never rebuilt by a scan *)
  mutable next_id : int;
  changed : (int, unit) Hashtbl.t;  (** probe ids changed since last build *)
  removed_targets : (string, unit) Hashtbl.t;
      (** symbols whose probes were removed — they must be recompiled even
          though the probe object is gone *)
}

let create () =
  {
    probes = [];
    by_id = Hashtbl.create 64;
    by_target = Hashtbl.create 64;
    next_id = 0;
    changed = Hashtbl.create 64;
    removed_targets = Hashtbl.create 16;
  }

let add t ?(enabled = true) ~target payload =
  let p = { Probe.pid = t.next_id; target; enabled; payload } in
  t.next_id <- t.next_id + 1;
  t.probes <- p :: t.probes;
  Hashtbl.replace t.by_id p.Probe.pid p;
  Hashtbl.replace t.by_target target
    (p :: Option.value ~default:[] (Hashtbl.find_opt t.by_target target));
  Hashtbl.replace t.changed p.Probe.pid ();
  p

let get t pid = Hashtbl.find_opt t.by_id pid

let get_exn t pid =
  match get t pid with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Manager.get_exn: no probe #%d" pid)

(** Removing a probe dirties its target symbol: the next recompilation
    regenerates the symbol without the probe's code. *)
let remove t (p : Probe.t) =
  t.probes <- List.filter (fun q -> q.Probe.pid <> p.Probe.pid) t.probes;
  Hashtbl.remove t.by_id p.Probe.pid;
  (match Hashtbl.find_opt t.by_target p.Probe.target with
  | None -> ()
  | Some ps -> (
    match List.filter (fun q -> q.Probe.pid <> p.Probe.pid) ps with
    | [] -> Hashtbl.remove t.by_target p.Probe.target
    | kept -> Hashtbl.replace t.by_target p.Probe.target kept));
  Hashtbl.remove t.changed p.Probe.pid;
  Hashtbl.replace t.removed_targets p.Probe.target ()

let set_enabled t (p : Probe.t) enabled =
  if p.Probe.enabled <> enabled then begin
    p.Probe.enabled <- enabled;
    Hashtbl.replace t.changed p.Probe.pid ()
  end

(** Batch N probe toggles into the dirty set in one pass. Semantically
    [List.iter (set_enabled t)]: each flip is O(1) into the same
    [changed] hashtable, so the whole batch is one dirty-set update that
    the next rebuild drains with a single [changed_targets] pass and a
    single schedule — the mutation-campaign hot path (disarm previous
    mutant + arm next one, or arm a whole mutant set at once). *)
let toggle_many t toggles =
  List.iter (fun (p, enabled) -> set_enabled t p enabled) toggles

(** Mark a probe's logic as modified (e.g. its payload was retargeted). *)
let touch t (p : Probe.t) = Hashtbl.replace t.changed p.Probe.pid ()

let iter f t = List.iter f (List.rev t.probes)
let to_list t = List.rev t.probes
let count t = List.length t.probes

(** Live probes registered against [target], oldest first (probe ids
    ascending — the same relative order {!to_list} would give). *)
let probes_on t target =
  List.rev (Option.value ~default:[] (Hashtbl.find_opt t.by_target target))

let changed_probes t =
  Hashtbl.fold (fun pid () acc -> Hashtbl.find t.by_id pid :: acc) t.changed []
  |> List.sort (fun (a : Probe.t) b -> compare a.Probe.pid b.Probe.pid)

let changed_targets t =
  let s = Hashtbl.create 16 in
  Hashtbl.iter
    (fun pid () ->
      Hashtbl.replace s (Hashtbl.find t.by_id pid).Probe.target ())
    t.changed;
  Hashtbl.iter (fun target () -> Hashtbl.replace s target ()) t.removed_targets;
  Hashtbl.fold (fun k () acc -> k :: acc) s [] |> List.sort String.compare

let has_changes t =
  Hashtbl.length t.changed > 0 || Hashtbl.length t.removed_targets > 0

(** Called by the engine after a successful rebuild. *)
let clear_changes t =
  Hashtbl.reset t.changed;
  Hashtbl.reset t.removed_targets
