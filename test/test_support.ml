(* Tests for the support library: RNG determinism, union-find, statistics. *)

let test_rng_deterministic () =
  let a = Support.Rng.create 42 in
  let b = Support.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64)
      "same stream" (Support.Rng.next_int64 a) (Support.Rng.next_int64 b)
  done

let test_rng_bounds () =
  let r = Support.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Support.Rng.int r 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_range () =
  let r = Support.Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Support.Rng.range r (-5) 5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let test_rng_split_independent () =
  let r = Support.Rng.create 1 in
  let s = Support.Rng.split r in
  let v1 = Support.Rng.next_int64 s in
  let v2 = Support.Rng.next_int64 r in
  Alcotest.(check bool) "streams differ" true (not (Int64.equal v1 v2))

let test_uf_basic () =
  let u = Support.Union_find.create () in
  Support.Union_find.union u "a" "b";
  Support.Union_find.union u "b" "c";
  Alcotest.(check bool) "a~c" true (Support.Union_find.same u "a" "c");
  Alcotest.(check bool) "a!~d" false (Support.Union_find.same u "a" "d")

let test_uf_clusters () =
  let u = Support.Union_find.create () in
  Support.Union_find.union u "a" "b";
  Support.Union_find.add u "z";
  let clusters = Support.Union_find.clusters u in
  Alcotest.(check int) "two clusters" 2 (List.length clusters);
  let sizes = List.map List.length clusters |> List.sort compare in
  Alcotest.(check (list int)) "sizes" [ 1; 2 ] sizes

let test_uf_idempotent_union () =
  let u = Support.Union_find.create () in
  Support.Union_find.union u "a" "b";
  Support.Union_find.union u "a" "b";
  Support.Union_find.union u "b" "a";
  let clusters = Support.Union_find.clusters u in
  Alcotest.(check int) "one cluster" 1 (List.length clusters)

let feq = Alcotest.float 1e-9

let test_stats_median_odd () =
  Alcotest.(check feq) "median" 2. (Support.Stats.median [ 3.; 1.; 2. ])

let test_stats_median_even () =
  Alcotest.(check feq) "median" 1.5 (Support.Stats.median [ 1.; 2. ])

let test_stats_mean () =
  Alcotest.(check feq) "mean" 2. (Support.Stats.mean [ 1.; 2.; 3. ])

let test_stats_geomean () =
  Alcotest.(check feq) "geomean" 2. (Support.Stats.geomean [ 1.; 4. ])

let test_stats_percentile () =
  let xs = [ 10.; 20.; 30.; 40. ] in
  Alcotest.(check feq) "p0" 10. (Support.Stats.percentile 0. xs);
  Alcotest.(check feq) "p100" 40. (Support.Stats.percentile 100. xs);
  Alcotest.(check feq) "p50" 25. (Support.Stats.percentile 50. xs)

let test_stats_p90_p99 () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  (* linear interpolation over 1..100: p90 = 90.1, p99 = 99.01 *)
  Alcotest.(check (Alcotest.float 1e-6)) "p90" 90.1 (Support.Stats.p90 xs);
  Alcotest.(check (Alcotest.float 1e-6)) "p99" 99.01 (Support.Stats.p99 xs);
  Alcotest.(check feq) "p90 singleton" 5. (Support.Stats.p90 [ 5. ]);
  Alcotest.(check feq) "p99 singleton" 5. (Support.Stats.p99 [ 5. ])

let test_stats_summary () =
  let s = Support.Stats.summarize [ 1.; 2.; 3.; 4. ] in
  Alcotest.(check int) "n" 4 s.Support.Stats.n;
  Alcotest.(check feq) "min" 1. s.Support.Stats.min;
  Alcotest.(check feq) "max" 4. s.Support.Stats.max

(* property: union-find clusters partition the member set *)
let prop_uf_partition =
  QCheck2.Test.make ~name:"union-find clusters partition members" ~count:100
    QCheck2.Gen.(list (pair (int_bound 20) (int_bound 20)))
    (fun pairs ->
      let u = Support.Union_find.create () in
      List.iter
        (fun (a, b) ->
          Support.Union_find.union u (string_of_int a) (string_of_int b))
        pairs;
      let clusters = Support.Union_find.clusters u in
      let all = List.concat clusters in
      let sorted = List.sort_uniq String.compare all in
      List.length all = List.length sorted
      && List.length all = List.length (Support.Union_find.members u))

let prop_median_between_min_max =
  QCheck2.Test.make ~name:"median lies within [min,max]" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 1000.))
    (fun xs ->
      let m = Support.Stats.median xs in
      m >= Support.Stats.min_l xs -. 1e-9 && m <= Support.Stats.max_l xs +. 1e-9)


let test_tab_render_alignment () =
  let out =
    Support.Tab.render ~header:[ "name"; "value" ]
      [ [ "a"; "1" ]; [ "longer"; "12345" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "header + sep + 2 rows" 4 (List.length lines);
  (* all lines share a width (right-aligned numeric column) *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_tab_bar_chart_scales () =
  let chart = Support.Tab.bar_chart ~width:10 [ ("a", 1.0); ("b", 2.0) ] in
  let lines = String.split_on_char '\n' chart in
  let hashes s = String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 s in
  match lines with
  | [ la; lb ] ->
    Alcotest.(check int) "max fills width" 10 (hashes lb);
    Alcotest.(check int) "half for half" 5 (hashes la)
  | _ -> Alcotest.fail "two lines expected"

let test_tab_pct_format () =
  Alcotest.(check string) "pct" "12.50%" (Support.Tab.pct 0.125)

(* ---------------- fault injection ---------------- *)

module Fault = Support.Fault

let test_fault_parse_round_trip () =
  match Fault.parse_plan "seed=42;opt.pipeline:transient:nth=1;link:raise:p=0.25" with
  | Error m -> Alcotest.fail m
  | Ok p ->
    Alcotest.(check int) "seed" 42 p.Fault.seed;
    Alcotest.(check int) "rules" 2 (List.length p.Fault.rules);
    Alcotest.(check string)
      "round trip" "seed=42;opt.pipeline:transient:nth=1;link:raise:p=0.25"
      (Fault.to_string p);
  (match Fault.parse_plan "link:delay=0.5" with
  | Ok { Fault.rules = [ { Fault.r_kind = Fault.Delay d; _ } ]; _ } ->
    Alcotest.(check (float 1e-9)) "delay" 0.5 d
  | _ -> Alcotest.fail "delay clause");
  List.iter
    (fun bad ->
      match Fault.parse_plan bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "link:explode"; "link:raise:p=2.0"; "link:raise:nth=0"; "seed=x;link:raise"; "justasite" ]

let test_fault_nth_trigger () =
  Fault.with_plan (Fault.plan [ Fault.rule ~trigger:(Fault.Nth 2) "site.a" Fault.Raise ])
  @@ fun () ->
  Fault.hit "site.a";
  Fault.hit "site.b";
  (* unrelated site: own counter *)
  Alcotest.(check bool) "2nd hit fires" true
    (try
       Fault.hit "site.a";
       false
     with Fault.Injected "site.a" -> true);
  Fault.hit "site.a";
  (* 3rd hit silent again *)
  Alcotest.(check int) "fired once" 1 (Fault.total_fired ())

let fire_pattern seed n =
  Fault.with_plan
    (Fault.plan ~seed [ Fault.rule ~trigger:(Fault.Prob 0.4) "s" Fault.Transient ])
  @@ fun () ->
  List.init n (fun _ ->
      try
        Fault.hit "s";
        false
      with Fault.Transient_fault _ -> true)

let test_fault_seed_determinism () =
  let a = fire_pattern 7 64 and b = fire_pattern 7 64 in
  Alcotest.(check (list bool)) "same seed, same pattern" a b;
  let fired = List.length (List.filter Fun.id a) in
  Alcotest.(check bool) "p=0.4 fires sometimes, not always" true
    (fired > 0 && fired < 64);
  (* a different seed gives a different pattern (overwhelmingly likely
     over 64 draws; deterministic given the fixed hash) *)
  Alcotest.(check bool) "seed changes pattern" true (fire_pattern 8 64 <> a)

let test_fault_suppression_and_torn () =
  Fault.with_plan
    (Fault.plan
       [ Fault.rule "s" Fault.Raise; Fault.rule "w" Fault.Torn ])
  @@ fun () ->
  Fault.with_suppressed (fun () ->
      Fault.hit "s";
      Alcotest.(check bool) "torn suppressed" false (Fault.torn "w"));
  (* torn rules are invisible to [hit] and vice versa *)
  Fault.hit "w";
  Alcotest.(check bool) "torn fires via torn" true (Fault.torn "w");
  Alcotest.(check bool) "raise site not torn" false (Fault.torn "s")

let test_fault_deadline_virtual () =
  (* virtual delay alone must trip the cooperative watchdog: no real
     sleeping in tests *)
  Fault.with_plan (Fault.plan [ Fault.rule "slow" (Fault.Delay 10.) ])
  @@ fun () ->
  Alcotest.(check bool) "timed out" true
    (try
       Fault.with_deadline (Some 1.0) (fun () ->
           Fault.hit "slow";
           false)
     with Fault.Timed_out "slow" -> true);
  (* without a deadline the delay is just virtual time *)
  Fault.hit "slow";
  Alcotest.(check bool) "no watchdog, no raise" true (Fault.backoff_total () >= 10.)

(* ---------------- persistent object store ---------------- *)

module Objstore = Support.Objstore

let store_seq = ref 0

let fresh_store_dir () =
  incr store_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "odin-objstore-test-%d-%d" (Hashtbl.hash Sys.executable_name) !store_seq)
  in
  Objstore.rm_rf dir;
  dir

let test_objstore_round_trip () =
  let dir = fresh_store_dir () in
  Fun.protect ~finally:(fun () -> Objstore.rm_rf dir) @@ fun () ->
  let st = Objstore.open_store dir in
  Alcotest.(check (option string)) "empty miss" None (Objstore.get st "k1");
  Objstore.put st "k1" "payload-one";
  Objstore.put st "k2" (String.make 4096 '\x00');
  Alcotest.(check (option string)) "hit" (Some "payload-one") (Objstore.get st "k1");
  Alcotest.(check (option string))
    "binary payload intact"
    (Some (String.make 4096 '\x00'))
    (Objstore.get st "k2");
  Alcotest.(check int) "two entries on disk" 2 (Objstore.length st);
  (* a fresh handle on the same directory is warm: the kill-and-restart
     round trip *)
  let st2 = Objstore.open_store dir in
  Alcotest.(check (option string))
    "survives reopen" (Some "payload-one") (Objstore.get st2 "k1");
  let s = Objstore.stats st2 in
  Alcotest.(check int) "reopen hits" 1 s.Objstore.st_hits;
  Alcotest.(check int) "no quarantine" 0 (Objstore.quarantine_length st2)

let test_objstore_corruption_quarantined () =
  let dir = fresh_store_dir () in
  Fun.protect ~finally:(fun () -> Objstore.rm_rf dir) @@ fun () ->
  let st = Objstore.open_store dir in
  Objstore.put st "key" "precious bytes";
  (* flip payload bytes in place: digest check must catch it *)
  let path = Objstore.entry_path st "key" in
  let raw = Support.Fsio.read_file path in
  let mangled = Bytes.of_string raw in
  Bytes.set mangled (Bytes.length mangled - 1) '!';
  Objstore.write_file path (Bytes.to_string mangled);
  Alcotest.(check (option string)) "corrupt entry is a miss" None (Objstore.get st "key");
  Alcotest.(check int) "quarantined" 1 (Objstore.quarantine_length st);
  Alcotest.(check int) "not served again" 0 (Objstore.length st);
  Alcotest.(check int) "counted" 1 (Objstore.stats st).Objstore.st_quarantined;
  (* truncated (torn) entry likewise *)
  Objstore.put st "key" "precious bytes";
  let raw = Support.Fsio.read_file path in
  Objstore.write_file path (String.sub raw 0 (String.length raw - 4));
  Alcotest.(check (option string)) "torn entry is a miss" None (Objstore.get st "key");
  Alcotest.(check int) "torn quarantined too" 2 (Objstore.quarantine_length st);
  (* the store heals: rewrite and read back *)
  Objstore.put st "key" "precious bytes";
  Alcotest.(check (option string))
    "healed" (Some "precious bytes") (Objstore.get st "key")

let test_objstore_version_invalidates () =
  let dir = fresh_store_dir () in
  Fun.protect ~finally:(fun () -> Objstore.rm_rf dir) @@ fun () ->
  let st = Objstore.open_store ~version:1 dir in
  Objstore.put st "k" "v1 payload";
  let st2 = Objstore.open_store ~version:2 dir in
  Alcotest.(check int) "format bump wipes objects" 0 (Objstore.length st2);
  Alcotest.(check (option string)) "old entry gone" None (Objstore.get st2 "k");
  Objstore.put st2 "k" "v2 payload";
  let st3 = Objstore.open_store ~version:2 dir in
  Alcotest.(check (option string))
    "same version preserved" (Some "v2 payload") (Objstore.get st3 "k")

let test_objstore_fault_sites () =
  let dir = fresh_store_dir () in
  Fun.protect ~finally:(fun () -> Objstore.rm_rf dir) @@ fun () ->
  let st = Objstore.open_store dir in
  Objstore.put st "k" "data";
  (* injected read fault degrades to a miss, never an exception *)
  Fault.with_plan (Fault.plan [ Fault.rule "store.read" Fault.Raise ]) (fun () ->
      Alcotest.(check (option string)) "read fault = miss" None (Objstore.get st "k"));
  Alcotest.(check (option string)) "entry intact" (Some "data") (Objstore.get st "k");
  (* injected write fault is swallowed and counted *)
  Fault.with_plan (Fault.plan [ Fault.rule "store.write" Fault.Raise ]) (fun () ->
      Objstore.put st "k2" "lost");
  Alcotest.(check (option string)) "write fault skipped persist" None (Objstore.get st "k2");
  Alcotest.(check int) "write error counted" 1 (Objstore.stats st).Objstore.st_write_errors;
  (* torn-write fault publishes a truncated entry; next get quarantines *)
  Fault.with_plan (Fault.plan [ Fault.rule "store.write" Fault.Torn ]) (fun () ->
      Objstore.put st "k3" "will be torn in half");
  Alcotest.(check (option string)) "torn write detected" None (Objstore.get st "k3");
  Alcotest.(check int) "torn write quarantined" 1 (Objstore.quarantine_length st)

let () =
  Alcotest.run "support"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "int bounds" `Quick test_rng_bounds;
          Alcotest.test_case "range bounds" `Quick test_rng_range;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        ] );
      ( "union-find",
        [
          Alcotest.test_case "basic" `Quick test_uf_basic;
          Alcotest.test_case "clusters" `Quick test_uf_clusters;
          Alcotest.test_case "idempotent union" `Quick test_uf_idempotent_union;
          QCheck_alcotest.to_alcotest prop_uf_partition;
        ] );
      ( "tab",
        [
          Alcotest.test_case "render alignment" `Quick test_tab_render_alignment;
          Alcotest.test_case "bar chart scaling" `Quick test_tab_bar_chart_scales;
          Alcotest.test_case "pct format" `Quick test_tab_pct_format;
        ] );
      ( "stats",
        [
          Alcotest.test_case "median odd" `Quick test_stats_median_odd;
          Alcotest.test_case "median even" `Quick test_stats_median_even;
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "p90/p99" `Quick test_stats_p90_p99;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          QCheck_alcotest.to_alcotest prop_median_between_min_max;
        ] );
      ( "fault",
        [
          Alcotest.test_case "plan parse round trip" `Quick
            test_fault_parse_round_trip;
          Alcotest.test_case "nth trigger" `Quick test_fault_nth_trigger;
          Alcotest.test_case "seed determinism" `Quick
            test_fault_seed_determinism;
          Alcotest.test_case "suppression + torn isolation" `Quick
            test_fault_suppression_and_torn;
          Alcotest.test_case "virtual deadline" `Quick
            test_fault_deadline_virtual;
        ] );
      ( "objstore",
        [
          Alcotest.test_case "round trip + reopen" `Quick
            test_objstore_round_trip;
          Alcotest.test_case "corruption quarantined" `Quick
            test_objstore_corruption_quarantined;
          Alcotest.test_case "version bump invalidates" `Quick
            test_objstore_version_invalidates;
          Alcotest.test_case "fault sites" `Quick test_objstore_fault_sites;
        ] );
    ]
