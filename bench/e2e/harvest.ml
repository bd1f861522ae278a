(** Per-layer self time from the span trees the program already records:
    session, optimizer passes, farm and mutation campaign. *)

module Span = Telemetry.Span

type acc = { mutable self : float; mutable total : float; mutable count : int }

(** Accumulated seconds per span key. Optimizer passes are keyed
    ["pass:<name>"] so they cannot collide with a layer span name. *)
type t = (string, acc) Hashtbl.t

let create () : t = Hashtbl.create 64

let key sp =
  if Span.cat sp = "pass" then "pass:" ^ Span.name sp else Span.name sp

let slot (h : t) k =
  match Hashtbl.find_opt h k with
  | Some a -> a
  | None ->
    let a = { self = 0.; total = 0.; count = 0 } in
    Hashtbl.replace h k a;
    a

(** Add one span and its whole subtree. *)
let rec add (h : t) sp =
  let kids = Span.children sp in
  let dur = Span.duration sp in
  let a = slot h (key sp) in
  a.self <-
    a.self
    +. Stats.self_time ~start:(Span.start sp) ~dur
         (List.map (fun c -> (Span.start c, Span.duration c)) kids);
  a.total <- a.total +. dur;
  a.count <- a.count + 1;
  List.iter (add h) kids

let add_all h spans = List.iter (add h) spans

(** Fold [src]'s sums into [into]. *)
let merge ~into (src : t) =
  Hashtbl.iter
    (fun k a ->
      let b = slot into k in
      b.self <- b.self +. a.self;
      b.total <- b.total +. a.total;
      b.count <- b.count + a.count)
    src

let self (h : t) k = match Hashtbl.find_opt h k with Some a -> a.self | None -> 0.
let total (h : t) k = match Hashtbl.find_opt h k with Some a -> a.total | None -> 0.
let count (h : t) k = match Hashtbl.find_opt h k with Some a -> a.count | None -> 0

(** The session refresh path's span names, by the layer each one
    belongs to. Together they cover a [refresh] span's subtree, so their
    self times sum to the refresh path's wall time (more, where fragment
    jobs overlap). *)
let session_layers =
  [
    ("session.schedule_ms", [ "schedule" ]);
    ("session.patch_ms", [ "patch" ]);
    ("session.materialize_ms", [ "materialize" ]);
    ("session.rebuild_ms", [ "refresh"; "build"; "rebuild"; "compile"; "fragment" ]);
    ("ir.digest_ms", [ "digest" ]);
    ("ir.verify_ms", [ "verify" ]);
    ("opt.optimize_ms", [ "optimize" ]);
    ("codegen.ms", [ "codegen" ]);
    ("link.ms", [ "link" ]);
  ]

(** The ten fragment passes of [Opt.Pipeline], by span name. *)
let passes =
  [ "mem2reg"; "constfold"; "instcombine"; "simplifycfg"; "gvn"; "dce";
    "inline"; "dead-arg-elim"; "jump-threading"; "loop-unroll" ]

let pass_metric p = "opt." ^ String.map (function '-' -> '_' | c -> c) p ^ "_ms"

(** Self time in milliseconds of every refresh-path layer, passes
    included, in a fixed order. *)
let layer_ms h =
  List.map
    (fun (m, names) ->
      (m, 1000. *. List.fold_left (fun a n -> a +. self h n) 0. names))
    session_layers
  @ List.map (fun p -> (pass_metric p, 1000. *. self h ("pass:" ^ p))) passes

(** Sum of every refresh-path layer's self time, seconds. *)
let attributed h =
  List.fold_left (fun a (_, ms) -> a +. (ms /. 1000.)) 0. (layer_ms h)
