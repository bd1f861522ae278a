(* Wall-clock end-to-end benchmark of Odin.

     odin_bench.exe --workload W --seed N --seconds S --trace 0|1
       one workload in this process; prints "workload metric value unit"
       lines and, last, one JSON object (correct, attempted, failed,
       metrics)
     odin_bench.exe run [--seed N] [--seconds S] [--repeat K] [--traced]
                        [--out-dir DIR]
       every workload, each in a fresh process of this executable;
       writes DIR/e2e.json (untraced runs) and, with --traced,
       DIR/layers.json (traced runs)
     odin_bench.exe compare A B
       per workload and end-to-end metric: median and quartiles of both
       result files and a verdict against the metric's bound in
       BENCHMARK.json

   See README.md in this directory. *)

module Json = Telemetry.Json
module W = Odin_e2e.Workload

let default_seconds = 15
let default_out_dir = "bench/e2e/results"

let die code fmt = Printf.ksprintf (fun s -> prerr_endline ("odin_bench: " ^ s); exit code) fmt

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

(* each of these selects another code path in the library *)
let pinned_vars = [ "ODIN_JOBS"; "ODIN_INCR_LINK"; "ODIN_INCR_SCHED"; "ODIN_TIER" ]

let refuse_pinned_env () =
  match List.filter (fun v -> Sys.getenv_opt v <> None) pinned_vars with
  | [] -> ()
  | set ->
    die 2 "refusing to run with %s set: the benchmark pins these itself"
      (String.concat ", " set)

(* the checkout's commit, read from .git without leaving the working
   directory; "unknown" outside a git checkout *)
let git_rev () =
  let read p = try String.trim (Support.Fsio.read_file p) with Sys_error _ -> "" in
  match read ".git/HEAD" with
  | "" -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" r) with
    | "" ->
      String.split_on_char '\n' (read ".git/packed-refs")
      |> List.find_map (fun l ->
             match String.split_on_char ' ' l with
             | [ sha; name ] when name = r -> Some sha
             | _ -> None)
      |> Option.value ~default:"unknown"
    | sha -> sha)
  | sha -> sha

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (x : W.metric) ->
         (x.W.name, Json.Obj [ ("value", Json.Float x.W.value); ("unit", Json.String x.W.unit_) ]))
       ms)

let run_one ~workload ~seed ~seconds ~traced =
  refuse_pinned_env ();
  (* the mutation campaign takes no pool argument: its default pool
     reads ODIN_JOBS, so pin it to the size the session workloads get *)
  Unix.putenv "ODIN_JOBS" "2";
  let pool = Support.Pool.create ~size:(W.pool_size workload) () in
  let config = W.config ~seconds in
  let name = W.to_string workload in
  Printf.printf "# %s seed=%d seconds=%d trace=%d nproc=%d ocaml=%s\n%!" name seed seconds
    (if traced then 1 else 0)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  let r =
    Fun.protect ~finally:(fun () -> Support.Pool.shutdown pool) (fun () ->
        W.run workload ~config ~seed ~traced pool)
  in
  let shown = if traced then r.W.per_layer @ r.W.extra else r.W.end_to_end in
  List.iter
    (fun (x : W.metric) -> Printf.printf "%s %s %.6g %s\n" name x.W.name x.W.value x.W.unit_)
    shown;
  List.iter (fun f -> Printf.eprintf "odin_bench: %s: %s\n" name f) r.W.failures;
  let correct = r.W.failures = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int r.W.attempted);
            ("failed", Json.Int r.W.failed);
            ("metrics", metrics_json (if traced then r.W.per_layer else r.W.end_to_end));
          ]));
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* run: every workload, one fresh process each                         *)
(* ------------------------------------------------------------------ *)

(* Run this executable on one workload; echo its output and return its
   metric lines plus the verdict line. *)
let child ~workload ~seed ~seconds ~traced =
  let argv =
    [| Sys.executable_name; "--workload"; W.to_string workload; "--seed"; string_of_int seed;
       "--seconds"; string_of_int seconds; "--trace"; (if traced then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let rec lines acc =
    match input_line ic with
    | l ->
      print_endline l;
      lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  let status = Unix.close_process_in ic in
  let verdict =
    match List.rev out with
    | last :: _ -> (match Json.of_string last with Ok j -> Some j | Error _ -> None)
    | [] -> None
  in
  let metrics =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ w; metric; v; u ] when w = W.to_string workload -> (
          match float_of_string_opt v with
          | Some f -> Some (metric, Json.Obj [ ("value", Json.Float f); ("unit", Json.String u) ])
          | None -> None)
        | _ -> None)
      out
  in
  let field k conv d =
    Option.value ~default:d (Option.bind verdict (fun j -> Option.bind (Json.member k j) conv))
  in
  let correct = status = Unix.WEXITED 0 && field "correct" Json.to_bool false in
  ( correct,
    Json.Obj
      [
        ("workload", Json.String (W.to_string workload));
        ("seed", Json.Int seed);
        ("correct", Json.Bool correct);
        ("attempted", Json.Int (field "attempted" Json.to_int 0));
        ("failed", Json.Int (field "failed" Json.to_int 0));
        ("metrics", Json.Obj metrics);
      ] )

let run_all ~seed ~seconds ~repeat ~traced ~out_dir =
  refuse_pinned_env ();
  let config = W.config ~seconds in
  let meta traced =
    Json.Obj
      [
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("git_rev", Json.String (git_rev ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("seed", Json.Int seed);
        ("seconds", Json.Int seconds);
        ("repeat", Json.Int repeat);
        ("traced", Json.Bool traced);
        ( "loop_sizes",
          Json.Obj
            [
              ("flips", Json.Int config.W.flips);
              ("churns", Json.Int config.W.churns);
              ("execs", Json.Int config.W.execs);
              ("mutants", Json.Int config.W.mutants);
              ("setup_reps", Json.Int config.W.setup_reps);
            ] );
      ]
  in
  let set traced =
    List.concat
      (List.init repeat (fun _ ->
           List.map (fun w -> child ~workload:w ~seed ~seconds ~traced) W.all))
  in
  let write file traced runs =
    let ok = List.for_all fst runs in
    let path = Filename.concat out_dir file in
    Support.Fsio.mkdir_p out_dir;
    Support.Fsio.write_atomic path
      (Json.to_string ~indent:2
         (Json.Obj
            [
              ("meta", meta traced);
              ("outputs_ok", Json.Int (if ok then 1 else 0));
              ("runs", Json.List (List.map snd runs));
            ]));
    Printf.printf "wrote %s (outputs_ok=%d)\n%!" path (if ok then 1 else 0);
    ok
  in
  let untraced_ok = write "e2e.json" false (set false) in
  let traced_ok = (not traced) || write "layers.json" true (set true) in
  exit (if untraced_ok && traced_ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let load path =
  match Json.of_string (try Support.Fsio.read_file path with Sys_error e -> die 2 "%s" e) with
  | Ok j -> j
  | Error e -> die 2 "%s: %s" path e

let list_of k j = Option.value ~default:[] (Option.bind (Json.member k j) Json.to_list)
let str k j = Option.bind (Json.member k j) Json.to_str

(* every value of [metric] on [workload] in a results file *)
let values runs ~workload ~metric =
  List.filter_map
    (fun run ->
      if str "workload" run <> Some workload then None
      else
        Option.bind (Json.member "metrics" run) (Json.member metric)
        |> Fun.flip Option.bind (Json.member "value")
        |> Fun.flip Option.bind Json.to_float)
    runs

(** "within bound", "worse" or "unresolved" for B against A. A spread
    wider than the bound leaves the metric unresolved unless every run of
    B reads better than every run of A. *)
let verdict ~lower_better ~bound a b =
  let open Support.Stats in
  let sa = summarize a and sb = summarize b in
  let ma = sa.median and mb = sb.median in
  let worse_by = (if lower_better then mb -. ma else ma -. mb) /. Float.abs ma in
  let spread = Float.max ((sa.p75 -. sa.p25) /. Float.abs ma) ((sb.p75 -. sb.p25) /. Float.abs mb) in
  let all_better = if lower_better then sb.max < sa.min else sb.min > sa.max in
  if spread > bound && not all_better then "unresolved"
  else if worse_by > bound then "worse"
  else "within bound"

let compare_files a_path b_path =
  let spec = load "BENCHMARK.json" in
  let runs_a = list_of "runs" (load a_path) and runs_b = list_of "runs" (load b_path) in
  let metrics =
    List.filter_map
      (fun e ->
        match (str "name" e, str "better" e, Option.bind (Json.member "bound" e) Json.to_float) with
        | Some n, Some better, Some bound -> Some (n, better = "lower", bound)
        | _ -> None)
      (list_of "end_to_end" spec)
  in
  let fmt xs =
    match xs with
    | [] -> "-"
    | _ ->
      let s = Support.Stats.summarize xs in
      Printf.sprintf "%.4g [%.4g, %.4g] n=%d" s.Support.Stats.median s.p25 s.p75 s.n
  in
  let rank = function "worse" | "missing" -> 2 | "unresolved" -> 1 | _ -> 0 in
  let worst vs = List.fold_left (fun acc v -> if rank v > rank acc then v else acc) "within bound" vs in
  let per_workload =
    List.map
      (fun w ->
        let workload = Option.value ~default:"?" (str "name" w) in
        let rows =
          List.map
            (fun (metric, lower_better, bound) ->
              let a = values runs_a ~workload ~metric and b = values runs_b ~workload ~metric in
              let v =
                if a = [] || b = [] then "missing" else verdict ~lower_better ~bound a b
              in
              (v, [ workload; metric; fmt a; fmt b; Printf.sprintf "%.0f%%" (100. *. bound); v ]))
            metrics
        in
        let summary = worst (List.map fst rows) in
        (summary, List.map snd rows @ [ [ workload; "(all)"; ""; ""; ""; summary ] ]))
      (list_of "workloads" spec)
  in
  print_endline
    (Support.Tab.render
       ~header:[ "workload"; "metric"; "A median [q1, q3]"; "B median [q1, q3]"; "bound"; "verdict" ]
       (List.concat_map snd per_workload));
  exit (if rank (worst (List.map fst per_workload)) = 2 then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  die 2
    "usage: odin_bench.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       odin_bench.exe run [--seed N] [--seconds S] [--repeat K] [--traced] [--out-dir DIR]\n\
    \       odin_bench.exe compare A B"

let int_arg s = match int_of_string_opt s with Some n when n >= 0 -> n | _ -> usage ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | "--traced" :: rest -> opts (("--traced", "1") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> (List.rev acc, [])
    | pos -> (List.rev acc, pos)
  in
  let get acc k d = Option.value ~default:d (List.assoc_opt k acc) in
  match args with
  | "run" :: rest ->
    let o, pos = opts [] rest in
    if pos <> [] then usage ();
    run_all
      ~seed:(int_arg (get o "--seed" "1"))
      ~seconds:(max 1 (int_arg (get o "--seconds" (string_of_int default_seconds))))
      ~repeat:(max 1 (int_arg (get o "--repeat" "1")))
      ~traced:(List.mem_assoc "--traced" o)
      ~out_dir:(get o "--out-dir" default_out_dir)
  | [ "compare"; a; b ] -> compare_files a b
  | _ -> (
    let o, pos = opts [] args in
    if pos <> [] then usage ();
    match Option.bind (List.assoc_opt "--workload" o) W.of_string with
    | None -> usage ()
    | Some workload ->
      run_one ~workload
        ~seed:(int_arg (get o "--seed" "1"))
        ~seconds:(max 1 (int_arg (get o "--seconds" (string_of_int default_seconds))))
        ~traced:
          (match get o "--trace" "0" with "0" -> false | "1" -> true | _ -> usage ()))
