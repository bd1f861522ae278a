(** Machine-readable benchmark snapshots ([BENCH_<section>.json]):
    versioned schema, atomic publication, and the tolerance-classed
    diff engine behind [odinc bench-diff]. See the implementation
    header for the class semantics. *)

val schema_version : int

(** How much drift the diff engine tolerates for a metric:
    [Exact] — none (deterministic counters); [Cost] — small (modelled
    or lightly sampled quantities); [Info] — never gates. Host
    wall-clock time has no class: bench/e2e measures it. *)
type cls = Exact | Cost | Info

val cls_to_string : cls -> string
val cls_of_string : string -> cls option

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
  m_class : cls;
}

type t = {
  s_schema : int;
  s_section : string;
  s_meta : (string * string) list;
  s_metrics : metric list;
}

(** Defaults: unit ["count"], class [Info] — gating is opt-in. *)
val metric : ?unit_:string -> ?cls:cls -> string -> float -> metric

val create : section:string -> ?meta:(string * string) list -> metric list -> t

val find : t -> string -> metric option

(** Current HEAD (first 12 hex chars), read from [.git] without a
    subprocess; ["unknown"] outside a repository. *)
val git_rev : unit -> string

(** git revision, jobs, hostname, creation time + [extra]. Meta is
    documentation — the diff engine never compares it. *)
val default_meta :
  ?jobs:int -> ?extra:(string * string) list -> unit -> (string * string) list

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

(** Pretty-printed document, trailing newline. *)
val render : t -> string

val parse : string -> (t, string) result

(** ["BENCH_<section>.json"]. *)
val filename : string -> string

(** Write [dir/BENCH_<section>.json] atomically (directory created);
    returns the path. Raises [Sys_error] on I/O failure. *)
val write : dir:string -> t -> string

val read : string -> (t, string) result

(** {2 Diff} *)

type verdict = Pass | Warn | Fail

type tolerances = { tol_cost_warn : float; tol_cost_fail : float }

(** cost: warn over 2%, fail over 10%. *)
val default_tolerances : tolerances

type entry = {
  d_name : string;
  d_class : cls;
  d_unit : string;
  d_base : float option;
  d_cur : float option;
  d_delta : float;  (** signed relative drift *)
  d_verdict : verdict;
  d_note : string;
}

(** Compare [current] against [baseline], metric by metric. Missing
    gated metrics fail; new metrics pass with a note. *)
val diff : ?tol:tolerances -> baseline:t -> current:t -> unit -> entry list

(** Most severe verdict in the list ([Pass] for an empty list). *)
val worst : entry list -> verdict
