(** Kill-matrix campaign driver. See the interface for the amortization
    argument; the implementation notes that matter:

    - a mutant transition is ONE batched toggle
      ([Session.refresh_toggles [(prev, false); (next, true)]]): one
      dirty-set drain, one O(changed) schedule pass, one incremental
      relink, regardless of where the two mutants live;
    - per-mutant work is a pure function of (mutant, suite) — workers
      never exchange anything mid-round — so merging rows in mutant-id
      order yields a structurally identical matrix for any worker count
      and either farm mode;
    - one campaign loop ({!run}) deals rounds, merges rows, publishes
      checkpoints and stops; the two modes are executors of it. The
      [Procs] executor runs its stateless children under
      {!Farm.Supervise}, the fuzzing farm's supervisor, and owns only
      the [mutate.*] frames. *)

module Recorder = Telemetry.Recorder
module Journal = Telemetry.Journal
module Json = Telemetry.Json
module Codec = Farm.Wire.Codec

type outcome = Pass | Kill | Crash | Hang
type verdict = Killed | Timeout | Survived

let outcome_char = function
  | Pass -> '.'
  | Kill -> 'K'
  | Crash -> '!'
  | Hang -> 'T'

let verdict_to_string = function
  | Killed -> "killed"
  | Timeout -> "timeout"
  | Survived -> "survived"

type row = {
  r_id : int;
  r_desc : string;
  r_family : Gen.family;
  r_target : string;
  r_outcomes : outcome list;
  r_verdict : verdict;
  r_cycles : int;
}

type matrix = {
  m_rows : row list;
  m_tests : int;
  m_generated : int;
  m_killed : int;
  m_survived : int;
  m_timeout : int;
  m_score : float;
}

type stats = {
  s_initial_links : int;
  s_full_links : int;
  s_incr_links : int;
  s_symbols_patched : int;
  s_restarts : int;
  s_retired : (int * string) list;
  s_resumed_rows : int;
}

type mode = Domains | Procs

type config = {
  mc_workers : int;
  mc_mode : mode;
  mc_families : Gen.family list;
  mc_limit : int option;
  mc_max_steps : int;
  mc_deadline : float option;
  mc_chunk : int;
  mc_checkpoint : string option;
  mc_resume : bool;
  mc_stop_after : int option;
  mc_worker_argv : string array option;
  mc_worker_timeout : float;
  mc_max_restarts : int;
}

let default_config =
  {
    mc_workers = 1;
    mc_mode = Domains;
    mc_families = Gen.all_families;
    mc_limit = None;
    mc_max_steps = 2_000_000;
    mc_deadline = None;
    mc_chunk = 16;
    mc_checkpoint = None;
    mc_resume = false;
    mc_stop_after = None;
    mc_worker_argv = None;
    mc_worker_timeout = 30.;
    mc_max_restarts = 3;
  }

let families_spec families =
  String.concat "," (List.map Gen.family_to_string families)

(* ------------------------------------------------------------------ *)
(* Blob sub-protocol ("mutate.*") and checkpoint codec                 *)
(* ------------------------------------------------------------------ *)

let family_tag = function
  | Gen.Aor -> 0
  | Gen.Ror -> 1
  | Gen.Const -> 2
  | Gen.Sdl -> 3
  | Gen.Brs -> 4

let family_of_tag = function
  | 0 -> Gen.Aor
  | 1 -> Gen.Ror
  | 2 -> Gen.Const
  | 3 -> Gen.Sdl
  | 4 -> Gen.Brs
  | n -> Codec.fail "mutate: bad family tag %d" n

let outcome_tag = function Pass -> 0 | Kill -> 1 | Crash -> 2 | Hang -> 3

let outcome_of_tag = function
  | 0 -> Pass
  | 1 -> Kill
  | 2 -> Crash
  | 3 -> Hang
  | n -> Codec.fail "mutate: bad outcome tag %d" n

let verdict_tag = function Killed -> 0 | Timeout -> 1 | Survived -> 2

let verdict_of_tag = function
  | 0 -> Killed
  | 1 -> Timeout
  | 2 -> Survived
  | n -> Codec.fail "mutate: bad verdict tag %d" n

let w_row b row =
  Codec.w_i64 b row.r_id;
  Codec.w_str b row.r_desc;
  Codec.w_u8 b (family_tag row.r_family);
  Codec.w_str b row.r_target;
  Codec.w_list b (fun b o -> Codec.w_u8 b (outcome_tag o)) row.r_outcomes;
  Codec.w_u8 b (verdict_tag row.r_verdict);
  Codec.w_i64 b row.r_cycles

let r_row c =
  let r_id = Codec.r_i64 c in
  let r_desc = Codec.r_str c in
  let r_family = family_of_tag (Codec.r_u8 c) in
  let r_target = Codec.r_str c in
  let r_outcomes = Codec.r_list c (fun c -> outcome_of_tag (Codec.r_u8 c)) in
  let r_verdict = verdict_of_tag (Codec.r_u8 c) in
  let r_cycles = Codec.r_i64 c in
  { r_id; r_desc; r_family; r_target; r_outcomes; r_verdict; r_cycles }

let blob kind pack =
  let b = Buffer.create 256 in
  pack b;
  Farm.Wire.Blob { bl_kind = kind; bl_data = Buffer.contents b }

let open_blob ~kind data =
  let c = Codec.cursor data in
  ignore kind;
  c

let close_blob ~kind c =
  if not (Codec.at_end c) then Codec.fail "mutate: trailing bytes in %s" kind

(* mutate.init: everything a stateless child needs to rebuild the exact
   session and mutant universe (module text round-trips like the fuzz
   farm's Wire.Init). *)
type winit = {
  wi_id : int;
  wi_entry : string;
  wi_host : string list;
  wi_suite : string list;
  wi_spec : string;  (** comma-joined operator families *)
  wi_limit : int option;
  wi_max_steps : int;
  wi_deadline : float option;
  wi_mod_name : string;
  wi_mod_text : string;
}

let init_blob i =
  blob "mutate.init" (fun b ->
      Codec.w_i64 b i.wi_id;
      Codec.w_str b i.wi_entry;
      Codec.w_list b Codec.w_str i.wi_host;
      Codec.w_list b Codec.w_str i.wi_suite;
      Codec.w_str b i.wi_spec;
      Codec.w_opt b Codec.w_i64 i.wi_limit;
      Codec.w_i64 b i.wi_max_steps;
      Codec.w_opt b Codec.w_f64 i.wi_deadline;
      Codec.w_str b i.wi_mod_name;
      Codec.w_str b i.wi_mod_text)

let init_of_blob data =
  let c = open_blob ~kind:"mutate.init" data in
  let wi_id = Codec.r_i64 c in
  let wi_entry = Codec.r_str c in
  let wi_host = Codec.r_list c Codec.r_str in
  let wi_suite = Codec.r_list c Codec.r_str in
  let wi_spec = Codec.r_str c in
  let wi_limit = Codec.r_opt c Codec.r_i64 in
  let wi_max_steps = Codec.r_i64 c in
  let wi_deadline = Codec.r_opt c Codec.r_f64 in
  let wi_mod_name = Codec.r_str c in
  let wi_mod_text = Codec.r_str c in
  close_blob ~kind:"mutate.init" c;
  {
    wi_id;
    wi_entry;
    wi_host;
    wi_suite;
    wi_spec;
    wi_limit;
    wi_max_steps;
    wi_deadline;
    wi_mod_name;
    wi_mod_text;
  }

let ready_blob ~id ~n_mutants =
  blob "mutate.ready" (fun b ->
      Codec.w_i64 b id;
      Codec.w_i64 b n_mutants)

let ready_of_blob data =
  let c = open_blob ~kind:"mutate.ready" data in
  let id = Codec.r_i64 c in
  let n = Codec.r_i64 c in
  close_blob ~kind:"mutate.ready" c;
  (id, n)

let assign_blob ~round ids =
  blob "mutate.assign" (fun b ->
      Codec.w_i64 b round;
      Codec.w_list b Codec.w_i64 ids)

let assign_of_blob data =
  let c = open_blob ~kind:"mutate.assign" data in
  let round = Codec.r_i64 c in
  let ids = Codec.r_list c Codec.r_i64 in
  close_blob ~kind:"mutate.assign" c;
  (round, ids)

(* worker -> supervisor: a batch, i.e. rows plus the link accounting
   [(incr, full, patched)] of the refreshes that produced them *)
let rows_blob ~round (rows, (incr, full, patched)) =
  blob "mutate.rows" (fun b ->
      Codec.w_i64 b round;
      Codec.w_i64 b incr;
      Codec.w_i64 b full;
      Codec.w_i64 b patched;
      Codec.w_list b w_row rows)

let rows_of_blob data =
  let c = open_blob ~kind:"mutate.rows" data in
  let round = Codec.r_i64 c in
  let incr = Codec.r_i64 c in
  let full = Codec.r_i64 c in
  let patched = Codec.r_i64 c in
  let rows = Codec.r_list c r_row in
  close_blob ~kind:"mutate.rows" c;
  (round, (rows, (incr, full, patched)))

let ckpt_version = 1

type ckpt = {
  ck_digest : string;  (** target module digest ({!Orch.module_digest}) *)
  ck_spec : string;
  ck_limit : int option;
  ck_tests : int;
  ck_suite_digest : string;
  ck_rows : row list;  (** completed rows, mutant id ascending *)
}

let suite_digest suite =
  Digest.to_hex (Digest.string (String.concat "\x00" suite))

let ckpt_blob ck =
  blob "mutate.ckpt" (fun b ->
      Codec.w_u8 b ckpt_version;
      Codec.w_str b ck.ck_digest;
      Codec.w_str b ck.ck_spec;
      Codec.w_opt b Codec.w_i64 ck.ck_limit;
      Codec.w_i64 b ck.ck_tests;
      Codec.w_str b ck.ck_suite_digest;
      Codec.w_list b w_row ck.ck_rows)

let ckpt_of_blob data =
  let c = open_blob ~kind:"mutate.ckpt" data in
  let v = Codec.r_u8 c in
  if v <> ckpt_version then Codec.fail "mutate: checkpoint version %d" v;
  let ck_digest = Codec.r_str c in
  let ck_spec = Codec.r_str c in
  let ck_limit = Codec.r_opt c Codec.r_i64 in
  let ck_tests = Codec.r_i64 c in
  let ck_suite_digest = Codec.r_str c in
  let ck_rows = Codec.r_list c r_row in
  close_blob ~kind:"mutate.ckpt" c;
  { ck_digest; ck_spec; ck_limit; ck_tests; ck_suite_digest; ck_rows }

(* ------------------------------------------------------------------ *)
(* Single-worker evaluation (both modes, supervisor and child)         *)
(* ------------------------------------------------------------------ *)

type wstate = {
  ws_session : Odin.Session.t;
  ws_mutants : Instr.Probe.t array;  (** generation order = mutant id *)
  ws_entry : string;
  ws_host : string list;
  ws_suite : string list;
  ws_baseline : int64 array;
  ws_max_steps : int;
  ws_deadline : float option;
  mutable ws_armed : Instr.Probe.t option;
  (* link accounting since the last drain *)
  mutable ws_incr : int;
  mutable ws_full : int;
  mutable ws_patched : int;
}

let run_test ~max_steps ~deadline ~entry ~host exe input =
  let vm = Vm.create ~max_steps exe in
  List.iter (fun n -> Vm.register_host vm n (fun _ -> 0L)) host;
  let addr = Vm.write_buffer vm input in
  let result =
    match
      Support.Fault.with_deadline deadline (fun () ->
          Vm.call vm entry [ addr; Int64.of_int (String.length input) ])
    with
    | ret -> Ok ret
    | exception Vm.Fault _ when Vm.budget_exhausted vm -> Error Hang
    | exception Support.Fault.Timed_out _ -> Error Hang
    | exception Vm.Fault _ -> Error Crash
  in
  (result, vm.Vm.cycles)

let baseline_returns ~max_steps ~deadline ~entry ~host session suite =
  Array.of_list
    (List.map
       (fun input ->
         match
           run_test ~max_steps ~deadline ~entry ~host
             (Odin.Session.executable session)
             input
         with
         | Ok ret, _ -> ret
         | Error o, _ ->
           failwith
             (Printf.sprintf
                "mutate: pristine baseline %s on input of %d bytes — raise \
                 max_steps/deadline or fix the suite"
                (match o with
                | Hang -> "exhausted its budget"
                | _ -> "trapped")
                (String.length input)))
       suite)

(** One mutant: batched toggle [(prev, off); (this, on)] → refresh →
    run the whole suite → row. *)
let eval_mutant st id =
  let p = st.ws_mutants.(id) in
  let toggles =
    (match st.ws_armed with
    | Some prev when prev != p -> [ (prev, false) ]
    | _ -> [])
    @ [ (p, true) ]
  in
  st.ws_armed <- Some p;
  (match Odin.Session.refresh_toggles st.ws_session toggles with
  | Some (_, Some ev) ->
    if ev.Odin.Session.ev_link_incremental then
      st.ws_incr <- st.ws_incr + 1
    else st.ws_full <- st.ws_full + 1;
    st.ws_patched <- st.ws_patched + ev.Odin.Session.ev_symbols_patched
  | Some (_, None) (* rolled back: the mutant never reached the image *)
  | None -> ());
  let m =
    match p.Instr.Probe.payload with
    | Instr.Probe.Mutant m -> m
    | _ -> assert false
  in
  let cycles = ref 0 in
  let outcomes =
    List.mapi
      (fun i input ->
        let result, c =
          run_test ~max_steps:st.ws_max_steps ~deadline:st.ws_deadline
            ~entry:st.ws_entry ~host:st.ws_host
            (Odin.Session.executable st.ws_session)
            input
        in
        cycles := !cycles + c;
        match result with
        | Ok ret -> if Int64.equal ret st.ws_baseline.(i) then Pass else Kill
        | Error o -> o)
      st.ws_suite
  in
  let verdict =
    if List.exists (fun o -> o = Kill || o = Crash) outcomes then Killed
    else if List.mem Hang outcomes then Timeout
    else Survived
  in
  {
    r_id = id;
    r_desc = m.Instr.Probe.mut_desc;
    r_family =
      (match Gen.family_of_probe p with Some f -> f | None -> assert false);
    r_target = p.Instr.Probe.target;
    r_outcomes = outcomes;
    r_verdict = verdict;
    r_cycles = !cycles;
  }

(** Disarm whatever is armed: the session's image returns bit-pristine
    (same structural digests → cached objects → no-op patches). *)
let quiesce st =
  match st.ws_armed with
  | None -> ()
  | Some p ->
    st.ws_armed <- None;
    (match Odin.Session.refresh_toggles st.ws_session [ (p, false) ] with
    | Some (_, Some ev) ->
      if ev.Odin.Session.ev_link_incremental then st.ws_incr <- st.ws_incr + 1
      else st.ws_full <- st.ws_full + 1;
      st.ws_patched <- st.ws_patched + ev.Odin.Session.ev_symbols_patched
    | _ -> ())

let drain_links st =
  let r = (st.ws_incr, st.ws_full, st.ws_patched) in
  st.ws_incr <- 0;
  st.ws_full <- 0;
  st.ws_patched <- 0;
  r

let mk_wstate ?objects ?owner ?pool ?telemetry ~families ~limit ~entry ~host
    ~suite ~max_steps ~deadline m =
  let session =
    Odin.Session.create ~keep:[ entry ] ~host
      ?pool ?objects ?owner ?telemetry m
  in
  let mutants = Gen.setup ~families ?limit session in
  (match Odin.Session.try_build session with
  | Odin.Session.Ok | Odin.Session.Degraded _ -> ()
  | Odin.Session.Rolled_back err ->
    failwith ("mutate: initial build rolled back: " ^ err.Odin.Session.err_msg));
  let baseline =
    baseline_returns ~max_steps ~deadline ~entry ~host session suite
  in
  {
    ws_session = session;
    ws_mutants = Array.of_list mutants;
    ws_entry = entry;
    ws_host = host;
    ws_suite = suite;
    ws_baseline = baseline;
    ws_max_steps = max_steps;
    ws_deadline = deadline;
    ws_armed = None;
    ws_incr = 0;
    ws_full = 0;
    ws_patched = 0;
  }

(* ------------------------------------------------------------------ *)
(* Merge + accounting                                                  *)
(* ------------------------------------------------------------------ *)

let merge_rows ~tests rows =
  let rows = List.sort (fun a b -> compare a.r_id b.r_id) rows in
  let count v = List.length (List.filter (fun r -> r.r_verdict = v) rows) in
  let killed = count Killed and timeout = count Timeout in
  let survived = count Survived in
  let generated = List.length rows in
  let score =
    if generated = 0 then 0.
    else 100. *. float_of_int (killed + timeout) /. float_of_int generated
  in
  {
    m_rows = rows;
    m_tests = tests;
    m_generated = generated;
    m_killed = killed;
    m_survived = survived;
    m_timeout = timeout;
    m_score = score;
  }

let record_counters r rows =
  List.iter
    (fun row ->
      let labels = [ ("op", Gen.family_to_string row.r_family) ] in
      Recorder.count r ~labels "mutate.generated";
      Recorder.count r ~labels ("mutate." ^ verdict_to_string row.r_verdict))
    rows

let record_rows_events jr rows =
  match jr with
  | None -> ()
  | Some j ->
    List.iter
      (fun row ->
        Journal.record j ~kind:"mutant"
          [
            ("id", Json.Int row.r_id);
            ("desc", Json.String row.r_desc);
            ("op", Json.String (Gen.family_to_string row.r_family));
            ("target", Json.String row.r_target);
            ("verdict", Json.String (verdict_to_string row.r_verdict));
            ("cycles", Json.Int row.r_cycles);
          ])
      rows

(* ------------------------------------------------------------------ *)
(* Checkpoint plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let publish_ckpt path ck = ignore (Farm.Wire.write_frame_file path (ckpt_blob ck))

let load_ckpt ~digest ~spec ~limit ~tests ~sdigest path =
  match Farm.Wire.load_frame_file path with
  | Error _ -> None
  | Ok (Farm.Wire.Blob { bl_kind = "mutate.ckpt"; bl_data }, _) -> (
    match ckpt_of_blob bl_data with
    | ck ->
      if ck.ck_digest <> digest then
        invalid_arg "mutate: checkpoint is for a different target module";
      if ck.ck_spec <> spec || ck.ck_limit <> limit then
        invalid_arg "mutate: checkpoint operator set differs";
      if ck.ck_tests <> tests || ck.ck_suite_digest <> sdigest then
        invalid_arg "mutate: checkpoint suite differs";
      Some ck
    | exception Farm.Wire.Wire_error _ -> None)
  | Ok _ -> None

(* ------------------------------------------------------------------ *)
(* Round scheduler (shared by both modes)                              *)
(* ------------------------------------------------------------------ *)

(** Deal the next [chunk * n_live] pending mutant ids round-robin over
    the live workers; the deal only decides who computes what. *)
let deal ~chunk pending live =
  let n = List.length live in
  let take = min (chunk * n) (List.length pending) in
  let rec split i acc = function
    | rest when i = take -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> split (i + 1) (x :: acc) rest
  in
  let batch, rest = split 0 [] pending in
  let shares = Array.make n [] in
  List.iteri (fun k id -> shares.(k mod n) <- id :: shares.(k mod n)) batch;
  let jobs =
    List.mapi (fun k w -> (w, List.rev shares.(k))) live
    |> List.filter (fun (_, ids) -> ids <> [])
  in
  (jobs, rest)

(* ------------------------------------------------------------------ *)
(* Executors                                                           *)
(* ------------------------------------------------------------------ *)

(* An executor builds the workers and drives [campaign] (the loop in
   {!run}) with [live], the worker ids to deal over, and [exec], which
   runs one round's [(id, mutant ids)] jobs. Every batch of rows and
   link counts goes to [accept]. Returns the restarts and the retired
   workers. *)

let run_domains ~r ~host ~entry ~suite cfg base ~campaign ~accept =
  let pool = Support.Pool.default () in
  let shared = Odin.Session.object_cache ~size:1024 () in
  let jclock = Telemetry.Clock.synchronized r.Recorder.clock in
  (* serial creation in id order: worker 0's build fills the shared
     cache, later builds are cross hits *)
  let workers =
    Array.init (max 1 cfg.mc_workers) (fun i ->
        let wr = Recorder.fork ~clock:jclock r in
        let st =
          mk_wstate ~objects:shared ~owner:i ~pool ~telemetry:wr
            ~families:cfg.mc_families ~limit:cfg.mc_limit ~entry ~host ~suite
            ~max_steps:cfg.mc_max_steps ~deadline:cfg.mc_deadline
            (Ir.Clone.clone_module base)
        in
        (st, wr))
  in
  let ids = List.init (Array.length workers) Fun.id in
  campaign
    ~n_mutants:(Array.length (fst workers.(0)).ws_mutants)
    ~live:(fun () -> ids)
    ~exec:(fun round jobs ->
      Support.Pool.map pool
        (fun (i, mids) ->
          let st, wr = workers.(i) in
          Recorder.with_span wr ~cat:"mutate"
            ~args:[ ("round", string_of_int round) ]
            "worker-round"
            (fun () ->
              let rows = List.map (eval_mutant st) mids in
              (rows, drain_links st)))
        jobs
      |> List.iter accept);
  (* leave every session bit-pristine (and count the closing relinks) *)
  Array.iter
    (fun (st, wr) ->
      quiesce st;
      accept ([], drain_links st);
      Recorder.merge ~into:r wr)
    workers;
  (0, [])

let run_procs ~r ~host ~entry ~suite cfg base ~campaign ~accept =
  let mod_text = Ir.Print.module_to_string base in
  let proto =
    {
      Farm.Supervise.init =
        (fun id ->
          init_blob
            {
              wi_id = id;
              wi_entry = entry;
              wi_host = host;
              wi_suite = suite;
              wi_spec = families_spec cfg.mc_families;
              wi_limit = cfg.mc_limit;
              wi_max_steps = cfg.mc_max_steps;
              wi_deadline = cfg.mc_deadline;
              wi_mod_name = base.Ir.Modul.mname;
              wi_mod_text = mod_text;
            });
      ready =
        (function
        | Farm.Wire.Blob { bl_kind = "mutate.ready"; bl_data } ->
          Some (snd (ready_of_blob bl_data))
        | _ -> None);
      assign = (fun (round, ids) -> assign_blob ~round ids);
      round_of = fst;
      result =
        (function
        | Farm.Wire.Blob { bl_kind = "mutate.rows"; bl_data } ->
          Some (rows_of_blob bl_data)
        | _ -> None);
    }
  in
  let argv =
    Option.value cfg.mc_worker_argv
      ~default:[| Sys.executable_name; "mutate-worker" |]
  in
  let sup, n_mutants =
    Farm.Supervise.start ~telemetry:r ~prefix:"mutate" ~argv
      ~timeout:cfg.mc_worker_timeout ~max_restarts:cfg.mc_max_restarts
      ~workers:cfg.mc_workers proto
  in
  Fun.protect ~finally:(fun () -> Farm.Supervise.shutdown sup) (fun () ->
      campaign ~n_mutants
        ~live:(fun () -> Farm.Supervise.live sup)
        ~exec:(fun round jobs ->
          Farm.Supervise.round sup
            (List.map (fun (id, ids) -> (id, (round, ids))) jobs)
            ~on_result:(fun _ batch -> accept batch)));
  (Farm.Supervise.restarts sup, Farm.Supervise.retired sup)

(* ------------------------------------------------------------------ *)
(* Procs mode: child                                                   *)
(* ------------------------------------------------------------------ *)

let worker_main () =
  Farm.Supervise.serve ~quit:quiesce
    ~init:(function
      | Farm.Wire.Blob { bl_kind = "mutate.init"; bl_data } ->
        let i = init_of_blob bl_data in
        let st =
          mk_wstate ~pool:Support.Pool.serial
            ~families:(Gen.families_of_spec i.wi_spec)
            ~limit:i.wi_limit ~entry:i.wi_entry ~host:i.wi_host
            ~suite:i.wi_suite ~max_steps:i.wi_max_steps
            ~deadline:i.wi_deadline
            (Ir.Parse.module_of_string ~name:i.wi_mod_name i.wi_mod_text)
        in
        (st, ready_blob ~id:i.wi_id ~n_mutants:(Array.length st.ws_mutants))
      | _ -> failwith "protocol violation: expected mutate.init")
    ~work:(fun st ~send -> function
      | Farm.Wire.Blob { bl_kind = "mutate.assign"; bl_data } ->
        let round, ids = assign_of_blob bl_data in
        let beat n = send (Farm.Wire.Heartbeat { hb_round = round; hb_done = n }) in
        beat 0;
        let rows =
          List.mapi
            (fun k id ->
              let row = eval_mutant st id in
              beat (k + 1);
              row)
            ids
        in
        send (rows_blob ~round (rows, drain_links st))
      | _ -> failwith "protocol violation: expected mutate.assign or Shutdown")

(* ------------------------------------------------------------------ *)
(* Entry point: the campaign loop                                      *)
(* ------------------------------------------------------------------ *)

let run ?telemetry ?journal ?journal_path
    ?(host = Workloads.Generate.host_functions) ~entry ~suite cfg base =
  let r = match telemetry with Some r -> r | None -> Recorder.create () in
  let jr =
    match (journal, journal_path) with
    | Some j, _ -> Some j
    | None, Some _ -> Some (Journal.create ~clock:r.Recorder.clock ())
    | None, None -> None
  in
  let jflush () =
    match (jr, journal_path) with
    | Some j, Some p -> Journal.flush j p
    | _ -> ()
  in
  let done_rows, resumed =
    match (cfg.mc_checkpoint, cfg.mc_resume) with
    | Some path, true -> (
      match
        load_ckpt
          ~digest:(Farm.Orch.module_digest base)
          ~spec:(families_spec cfg.mc_families)
          ~limit:cfg.mc_limit ~tests:(List.length suite)
          ~sdigest:(suite_digest suite) path
      with
      | Some ck -> (ck.ck_rows, true)
      | None -> ([], false))
    | _ -> ([], false)
  in
  let nw = max 1 cfg.mc_workers in
  let sp =
    Telemetry.Span.enter r.Recorder.spans ~cat:"mutate"
      ~args:
        [
          ("workers", string_of_int nw);
          ("mode", match cfg.mc_mode with Domains -> "domains" | Procs -> "procs");
          ("ops", families_spec cfg.mc_families);
          ("tests", string_of_int (List.length suite));
        ]
      "campaign"
  in
  Fun.protect ~finally:(fun () ->
      Telemetry.Span.exit r.Recorder.spans sp;
      jflush ())
  @@ fun () ->
  let rows = Hashtbl.create 997 in
  List.iter (fun row -> Hashtbl.replace rows row.r_id row) done_rows;
  let incr_links = ref 0 and full_links = ref 0 and patched = ref 0 in
  let accept (batch, (i, f, p)) =
    incr_links := !incr_links + i;
    full_links := !full_links + f;
    patched := !patched + p;
    List.iter (fun row -> Hashtbl.replace rows row.r_id row) batch;
    record_counters (Some r) batch;
    record_rows_events jr batch
  in
  let sorted_rows () =
    Hashtbl.fold (fun _ row acc -> row :: acc) rows []
    |> List.sort (fun a b -> compare a.r_id b.r_id)
  in
  let publish () =
    match cfg.mc_checkpoint with
    | None -> ()
    | Some path ->
      publish_ckpt path
        {
          ck_digest = Farm.Orch.module_digest base;
          ck_spec = families_spec cfg.mc_families;
          ck_limit = cfg.mc_limit;
          ck_tests = List.length suite;
          ck_suite_digest = suite_digest suite;
          ck_rows = sorted_rows ();
        }
  in
  let stopped () =
    match cfg.mc_stop_after with
    | None -> false
    | Some n -> Hashtbl.length rows >= n
  in
  (* one round at a time, until every mutant has a row, the stop hook
     fires, or no worker is left *)
  let campaign ~n_mutants ~live ~exec =
    let rec rounds round pending =
      match live () with
      | ids when ids <> [] && pending <> [] && not (stopped ()) ->
        let jobs, rest = deal ~chunk:cfg.mc_chunk pending ids in
        exec round jobs;
        Recorder.count (Some r) "mutate.rounds";
        publish ();
        rounds (round + 1) rest
      | _ -> ()
    in
    List.init n_mutants Fun.id
    |> List.filter (fun id -> not (Hashtbl.mem rows id))
    |> rounds 1
  in
  let restarts, retired =
    match cfg.mc_mode with
    | Domains -> run_domains ~r ~host ~entry ~suite cfg base ~campaign ~accept
    | Procs -> run_procs ~r ~host ~entry ~suite cfg base ~campaign ~accept
  in
  let matrix = merge_rows ~tests:(List.length suite) (sorted_rows ()) in
  (* every (re)boot was a full compile; [Procs] children quiesce on
     Shutdown, unaccounted *)
  let stats =
    {
      s_initial_links = nw + restarts;
      s_full_links = nw + restarts + !full_links;
      s_incr_links = !incr_links;
      s_symbols_patched = !patched;
      s_restarts = restarts;
      s_retired = retired;
      s_resumed_rows = (if resumed then List.length done_rows else 0);
    }
  in
  (match jr with
  | None -> ()
  | Some j ->
    Journal.record j ~kind:"mutate.done"
      [
        ("generated", Json.Int matrix.m_generated);
        ("killed", Json.Int matrix.m_killed);
        ("survived", Json.Int matrix.m_survived);
        ("timeout", Json.Int matrix.m_timeout);
        ("score", Json.Float matrix.m_score);
        ("full_links", Json.Int stats.s_full_links);
        ("incr_links", Json.Int stats.s_incr_links);
        ("restarts", Json.Int stats.s_restarts);
      ]);
  (matrix, stats)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render m =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "kill matrix: %d mutants x %d tests\n" m.m_generated
       m.m_tests);
  List.iter
    (fun row ->
      let cells = String.init m.m_tests (fun i ->
          match List.nth_opt row.r_outcomes i with
          | Some o -> outcome_char o
          | None -> '?')
      in
      Buffer.add_string b
        (Printf.sprintf "  %4d  %-22s %-24s [%s] %s\n" row.r_id row.r_desc
           row.r_target cells
           (verdict_to_string row.r_verdict)))
    m.m_rows;
  Buffer.add_string b "  per-operator:\n";
  List.iter
    (fun fam ->
      let rows = List.filter (fun r -> r.r_family = fam) m.m_rows in
      if rows <> [] then begin
        let count v =
          List.length (List.filter (fun r -> r.r_verdict = v) rows)
        in
        Buffer.add_string b
          (Printf.sprintf
             "    %-6s generated %4d  killed %4d  timeout %4d  survived %4d\n"
             (Gen.family_to_string fam) (List.length rows) (count Killed)
             (count Timeout) (count Survived))
      end)
    Gen.all_families;
  Buffer.add_string b
    (Printf.sprintf
       "  score: %.1f%% (%d killed + %d timeout of %d; %d survived)\n"
       m.m_score m.m_killed m.m_timeout m.m_generated m.m_survived);
  Buffer.contents b
