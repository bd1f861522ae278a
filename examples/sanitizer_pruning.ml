(* Sanitizer checks as Odin probes (paper Section 7, future work):

   - ASAP-style: profile the check trip counts, remove the *hot* checks
     (they almost never catch bugs but dominate overhead), keep the cold
     ones — except with Odin the removal happens mid-campaign with a
     fragment recompile instead of a full rebuild;
   - UBSan-with-fuzzing: a check that fires on well-formed inputs (a
     false positive) would abort every execution — remove exactly that
     probe on the fly and keep fuzzing with all other checks armed.

     dune exec examples/sanitizer_pruning.exe
*)

let source =
  {|
static int hot_path(int x, int d) {
  int acc = 0;
  for (int i = 0; i < 16; i++) {
    acc += x / (d + i + 1);   /* hot division check */
  }
  return acc;
}

static int cold_path(int x, int d) {
  return x / d;               /* cold division check: a real bug hides here */
}

int target_main(int x, int selector) {
  if (selector == 77) return cold_path(x, selector - 77);  /* div by zero! */
  return hot_path(x, selector & 7);
}
|}

let entry = "target_main"

let run session checks x selector =
  let vm = Vm.create (Odin.Session.executable session) in
  List.iter (fun (n, h) -> Vm.register_host vm n h) (Odin.Checks.host_hooks checks);
  try Some (Vm.call vm entry [ x; selector ]) with Vm.Fault _ -> None

let () =
  print_endline "== Sanitizer-check probes: ASAP-style hot pruning + UBSan removal ==\n";
  let m = Minic.Lower.compile ~name:"sanitized" source in
  let session = Odin.Session.create ~keep:[ entry ] m in
  let checks = Odin.Checks.setup session in
  ignore (Odin.Session.build session);
  Printf.printf "check probes installed: %d\n\n"
    (Instr.Manager.count session.Odin.Session.manager);

  (* profile with benign executions: the loop check gets hot *)
  for i = 1 to 40 do
    ignore (run session checks (Int64.of_int (i * 3)) (Int64.of_int (i land 7)))
  done;
  Printf.printf "after 40 benign executions: %d check trips recorded\n"
    checks.Odin.Checks.trips;
  Instr.Manager.iter
    (fun (p : Instr.Probe.t) ->
      match p.Instr.Probe.payload with
      | Instr.Probe.Check c ->
        Printf.printf "  probe #%d on @%s: %d trips\n" p.Instr.Probe.pid
          p.Instr.Probe.target c.Instr.Probe.chk_trips
      | _ -> ())
    session.Odin.Session.manager;

  (* ASAP: drop hot checks, keep cold ones *)
  let pruned = Odin.Checks.prune_hot ~threshold:100 checks in
  (match Odin.Session.refresh session with
  | Some ev ->
    Printf.printf
      "\nASAP pruning: removed %d hot check(s), recompiled in %.2f ms\n" pruned
      (1000. *. ev.Odin.Session.ev_compile_time)
  | None -> ());
  Printf.printf "remaining checks: %d (the cold one still guards the rare path)\n"
    (Instr.Manager.count session.Odin.Session.manager);

  (* the cold check still catches the division by zero *)
  let before = List.length checks.Odin.Checks.violations in
  ignore (run session checks 5L 77L);
  let caught = List.length checks.Odin.Checks.violations > before in
  Printf.printf "\ntrigger the rare bug (selector=77): violation caught = %b\n" caught;

  (* UBSan-with-fuzzing: suppose that cold check were a false positive —
     remove exactly that probe and continue *)
  (match checks.Odin.Checks.violations with
  | { Odin.Checks.v_pid; _ } :: _ ->
    Instr.Manager.remove session.Odin.Session.manager
      (Instr.Manager.get_exn session.Odin.Session.manager v_pid);
    (match Odin.Session.refresh session with
    | Some _ ->
      Printf.printf
        "UBSan mode: probe #%d removed on the fly; campaign continues with %d checks\n"
        v_pid
        (Instr.Manager.count session.Odin.Session.manager)
    | None -> ())
  | [] -> ())
