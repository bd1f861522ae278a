(** Machine-readable benchmark snapshots: the perf-trajectory layer.

    One snapshot = one bench section's run, as a versioned JSON document
    ([BENCH_<section>.json]): run metadata (git revision, jobs, mode),
    plus a flat list of metrics, each carrying a unit and a {e tolerance
    class} that tells the diff engine how much drift is legitimate:

    - {!Exact} — deterministic counters (VM cycles, coverage, modelled
      link cost ratios, cache hits). Any change is a regression (or an
      unreviewed improvement): fail.
    - {!Cost} — modelled or derived quantities with small legitimate
      jitter (per-barrier averages over a sampled run). Small drift
      warns, larger drift fails.
    - {!Info} — context (worker counts, program sizes): never gates.

    There is no wall-clock class: host wall time does not hold across
    machines, so it is not gated against committed baselines. The
    wall-clock benchmark is [bench/e2e], which judges paired runs of two
    commits on one host.

    Documents are published with {!Support.Fsio.write_atomic}, so a
    killed bench run never leaves a truncated snapshot. *)

let schema_version = 1

type cls = Exact | Cost | Info

let cls_to_string = function
  | Exact -> "exact"
  | Cost -> "cost"
  | Info -> "info"

let cls_of_string = function
  | "exact" -> Some Exact
  | "cost" -> Some Cost
  | "info" -> Some Info
  | _ -> None

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;  (** "count", "cycles", "cost", "ratio", "%", ... *)
  m_class : cls;
}

type t = {
  s_schema : int;
  s_section : string;
  s_meta : (string * string) list;  (** git_rev, jobs, created, ... *)
  s_metrics : metric list;
}

let metric ?(unit_ = "count") ?(cls = Info) name value =
  { m_name = name; m_value = value; m_unit = unit_; m_class = cls }

let create ~section ?(meta = []) metrics =
  { s_schema = schema_version; s_section = section; s_meta = meta; s_metrics = metrics }

let find t name =
  List.find_opt (fun m -> m.m_name = name) t.s_metrics

(* ------------------------------------------------------------------ *)
(* Run metadata                                                        *)
(* ------------------------------------------------------------------ *)

(* Resolve HEAD by reading .git directly — no subprocess, works in any
   checkout; "unknown" outside a repository. *)
let git_rev () =
  let read path = try Some (String.trim (Support.Fsio.read_file path)) with _ -> None in
  let rec find_git dir depth =
    if depth > 8 then None
    else
      let cand = Filename.concat dir ".git" in
      if Sys.file_exists cand then Some cand
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else find_git parent (depth + 1)
  in
  match find_git (Sys.getcwd ()) 0 with
  | None -> "unknown"
  | Some git -> (
    match read (Filename.concat git "HEAD") with
    | None -> "unknown"
    | Some head ->
      if String.length head > 5 && String.sub head 0 5 = "ref: " then
        let refname = String.sub head 5 (String.length head - 5) in
        let direct = read (Filename.concat git refname) in
        let packed () =
          match read (Filename.concat git "packed-refs") with
          | None -> None
          | Some body ->
            String.split_on_char '\n' body
            |> List.find_map (fun line ->
                   match String.index_opt line ' ' with
                   | Some i
                     when String.sub line (i + 1) (String.length line - i - 1)
                          = refname ->
                     Some (String.sub line 0 i)
                   | _ -> None)
        in
        let rev =
          match direct with Some r -> Some r | None -> packed ()
        in
        (match rev with
        | Some r when String.length r >= 12 -> String.sub r 0 12
        | Some r -> r
        | None -> "unknown")
      else if String.length head >= 12 then String.sub head 0 12
      else head)

(** Standard metadata block: git revision, job count, creation time
    (wall — informational only; the diff engine never reads meta). *)
let default_meta ?(jobs = 0) ?(extra = []) () =
  [
    ("git_rev", git_rev ());
    ("jobs", string_of_int jobs);
    ("hostname", try Unix.gethostname () with _ -> "unknown");
    ("created", Printf.sprintf "%.0f" (Unix.time ()));
  ]
  @ extra

(* ------------------------------------------------------------------ *)
(* JSON round trip                                                     *)
(* ------------------------------------------------------------------ *)

let to_json t =
  Json.Obj
    [
      ("schema_version", Json.Int t.s_schema);
      ("section", Json.String t.s_section);
      ( "meta",
        Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) t.s_meta) );
      ( "metrics",
        Json.List
          (List.map
             (fun m ->
               Json.Obj
                 [
                   ("name", Json.String m.m_name);
                   ("value", Json.Float m.m_value);
                   ("unit", Json.String m.m_unit);
                   ("class", Json.String (cls_to_string m.m_class));
                 ])
             t.s_metrics) );
    ]

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let req name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "snapshot: missing or bad field %S" name)
  in
  let* schema = req "schema_version" Json.to_int in
  if schema <> schema_version then
    Error
      (Printf.sprintf "snapshot: schema version %d, this reader understands %d"
         schema schema_version)
  else
    let* section = req "section" Json.to_str in
    let meta =
      match Json.member "meta" j with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
          fields
      | _ -> []
    in
    let* metrics_json = req "metrics" Json.to_list in
    let* metrics =
      List.fold_left
        (fun acc mj ->
          let* acc = acc in
          let get name conv =
            match Option.bind (Json.member name mj) conv with
            | Some v -> Ok v
            | None ->
              Error (Printf.sprintf "snapshot: metric missing field %S" name)
          in
          let* name = get "name" Json.to_str in
          let* value = get "value" Json.to_float in
          let* unit_ = get "unit" Json.to_str in
          let* cls_s = get "class" Json.to_str in
          match cls_of_string cls_s with
          | None -> Error (Printf.sprintf "snapshot: unknown class %S" cls_s)
          | Some cls ->
            Ok ({ m_name = name; m_value = value; m_unit = unit_; m_class = cls } :: acc))
        (Ok []) metrics_json
    in
    Ok
      {
        s_schema = schema;
        s_section = section;
        s_meta = meta;
        s_metrics = List.rev metrics;
      }

let render t = Json.to_string ~indent:2 (to_json t) ^ "\n"

let parse s =
  match Json.of_string s with
  | Error msg -> Error ("snapshot: invalid JSON: " ^ msg)
  | Ok j -> of_json j

let filename section = Printf.sprintf "BENCH_%s.json" section

(** Write [BENCH_<section>.json] under [dir] (created if missing),
    atomically. Returns the path written. *)
let write ~dir t =
  Support.Fsio.mkdir_p dir;
  let path = Filename.concat dir (filename t.s_section) in
  Support.Fsio.write_atomic path (render t);
  path

let read path =
  match (try Ok (Support.Fsio.read_file path) with Sys_error m -> Error m) with
  | Error m -> Error m
  | Ok body -> parse body

(* ------------------------------------------------------------------ *)
(* Diff: the regression gate                                           *)
(* ------------------------------------------------------------------ *)

type verdict = Pass | Warn | Fail

type tolerances = {
  tol_cost_warn : float;  (** relative drift, e.g. 0.02 = 2% *)
  tol_cost_fail : float;
}

(** Cost: warn over 2%, fail over 10%. *)
let default_tolerances = { tol_cost_warn = 0.02; tol_cost_fail = 0.10 }

type entry = {
  d_name : string;
  d_class : cls;
  d_unit : string;
  d_base : float option;  (** [None]: metric new in current *)
  d_cur : float option;  (** [None]: metric vanished from current *)
  d_delta : float;  (** relative drift, signed; 0 when either side missing *)
  d_verdict : verdict;
  d_note : string;
}

let rel_delta base cur =
  if base = cur then 0.
  else if Float.abs base < 1e-12 then Float.infinity *. Float.of_int (compare cur base)
  else (cur -. base) /. Float.abs base

(** Compare one metric pair. Regressions are {e increases} for the cost
    class (every gated cost metric is a modelled cost — lower is
    better); improvements pass with a note. Exact
    metrics fail on any change, in either direction: an unexplained
    "improvement" in a deterministic counter is a behavior change that
    must be reviewed and baselined, not silently absorbed. *)
let diff_metric ?(tol = default_tolerances) (base : metric) (cur : metric) =
  let delta = rel_delta base.m_value cur.m_value in
  let verdict, note =
    match base.m_class with
    | Info -> (Pass, "")
    | Exact ->
      if base.m_value = cur.m_value then (Pass, "")
      else (Fail, "exact metric drifted")
    | Cost ->
      let warn_t = tol.tol_cost_warn and fail_t = tol.tol_cost_fail in
      if delta > fail_t then (Fail, Printf.sprintf "over +%.0f%%" (100. *. fail_t))
      else if delta > warn_t then (Warn, Printf.sprintf "over +%.0f%%" (100. *. warn_t))
      else if delta < -.warn_t then (Pass, "improved")
      else (Pass, "")
  in
  {
    d_name = base.m_name;
    d_class = base.m_class;
    d_unit = base.m_unit;
    d_base = Some base.m_value;
    d_cur = Some cur.m_value;
    d_delta = delta;
    d_verdict = verdict;
    d_note = note;
  }

(** Diff two snapshots of the same section. A metric present in the
    baseline but missing from the current run fails — silently dropping
    a gated metric must not pass the gate; new metrics pass with a
    note. *)
let diff ?(tol = default_tolerances) ~baseline ~current () =
  let entries =
    List.map
      (fun bm ->
        match find current bm.m_name with
        | Some cm -> diff_metric ~tol bm cm
        | None ->
          {
            d_name = bm.m_name;
            d_class = bm.m_class;
            d_unit = bm.m_unit;
            d_base = Some bm.m_value;
            d_cur = None;
            d_delta = 0.;
            d_verdict = (if bm.m_class = Info then Pass else Fail);
            d_note = "metric missing from current";
          })
      baseline.s_metrics
  in
  let new_entries =
    List.filter_map
      (fun cm ->
        match find baseline cm.m_name with
        | Some _ -> None
        | None ->
          Some
            {
              d_name = cm.m_name;
              d_class = cm.m_class;
              d_unit = cm.m_unit;
              d_base = None;
              d_cur = Some cm.m_value;
              d_delta = 0.;
              d_verdict = Pass;
              d_note = "new metric";
            })
      current.s_metrics
  in
  entries @ new_entries

let worst entries =
  List.fold_left
    (fun acc e ->
      match (acc, e.d_verdict) with
      | _, Fail | Fail, _ -> Fail
      | _, Warn | Warn, _ -> Warn
      | Pass, Pass -> Pass)
    Pass entries
