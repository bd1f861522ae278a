(** OdinCov: basic-block coverage instrumentation on top of the Odin
    probe framework (paper Section 5's demonstration tool).

    Each basic block of the target program gets one probe; an enabled
    probe compiles to an inline 8-bit counter increment (the same scheme
    SanitizerCoverage uses). Pruning follows Untracer: once a counter has
    fired, the probe has nothing left to say and is removed; Odin
    recompiles the affected fragments without it. The whole scheme — the
    paper points out its OdinCov equivalent is 33 lines — is the code in
    [patch] below. *)

let counters_sym = "__odin_counters"

type t = {
  session : Session.t;
  mutable total_probes : int;
  mutable pruned_total : int;
}

(* Insert the counter-increment sequence at the head of [blk] (after any
   phis), as volatile instructions so no pass can elide or merge them. *)
let insert_counter names (blk : Ir.Func.block) pid =
  let ptr = Ir.Func.alloc names "covp" in
  let old = Ir.Func.alloc names "covv" in
  let incremented = Ir.Func.alloc names "covi" in
  let seq =
    [
      Ir.Ins.mk ~volatile:true ~id:ptr ~ty:Ir.Types.Ptr
        (Ir.Ins.Gep (Ir.Ins.Global counters_sym, Ir.Builder.i64 pid, 1));
      Ir.Ins.mk ~volatile:true ~id:old ~ty:Ir.Types.I8
        (Ir.Ins.Load (Ir.Ins.Reg (Ir.Types.Ptr, ptr)));
      Ir.Ins.mk ~volatile:true ~id:incremented ~ty:Ir.Types.I8
        (Ir.Ins.Binop (Ir.Ins.Add, Ir.Ins.Reg (Ir.Types.I8, old), Ir.Builder.i8 1));
      Ir.Ins.mk ~volatile:true ~id:"" ~ty:Ir.Types.Void
        (Ir.Ins.Store (Ir.Ins.Reg (Ir.Types.I8, incremented), Ir.Ins.Reg (Ir.Types.Ptr, ptr)));
    ]
  in
  let phis, rest =
    List.partition
      (fun (i : Ir.Ins.ins) ->
        match i.Ir.Ins.kind with Ir.Ins.Phi _ -> true | _ -> false)
      blk.Ir.Func.insns
  in
  blk.Ir.Func.insns <- phis @ seq @ rest

(* The patch logic: map each active coverage probe to the temporary IR
   and insert its counter. One name allocator per target function serves
   all its probes (a block-per-probe scheme can put hundreds of probes on
   one function). *)
let patch (sched : Session.sched) =
  let names = Ir.Func.namer () in
  List.iter
    (fun (p : Instr.Probe.t) ->
      match p.Instr.Probe.payload with
      | Instr.Probe.Cov c -> (
        match Session.map_func sched p.Instr.Probe.target with
        | Some fn when not (Ir.Func.is_declaration fn) -> (
          match Ir.Func.find_block fn c.Instr.Probe.cov_block with
          | Some blk -> insert_counter (names fn) blk p.Instr.Probe.pid
          | None -> () (* block label vanished: stale probe, nothing to do *))
        | _ -> ())
      | _ -> ())
    sched.Session.active

(** Number of counter slots needed for a program: one per basic block. *)
let count_blocks (m : Ir.Modul.t) =
  List.fold_left
    (fun acc f -> acc + Ir.Func.block_count f)
    0
    (Ir.Modul.defined_functions m)

(** The runtime-global declaration to pass to {!Session.create}. *)
let runtime_global m = (counters_sym, max 1 (count_blocks m))

(** Register one probe per basic block of every defined function. *)
let setup (session : Session.t) =
  let t = { session; total_probes = 0; pruned_total = 0 } in
  List.iter
    (fun (f : Ir.Func.t) ->
      Ir.Func.iter_blocks
        (fun b ->
          ignore
            (Instr.Manager.add session.Session.manager ~target:f.Ir.Func.name
               (Instr.Probe.Cov { cov_block = b.Ir.Func.label; cov_hits = 0 }));
          t.total_probes <- t.total_probes + 1)
        f)
    (Ir.Modul.defined_functions session.Session.base);
  Session.add_patcher session patch;
  t

(* ------------------------------------------------------------------ *)
(* Runtime side: reading counters, collecting coverage, pruning        *)
(* ------------------------------------------------------------------ *)

(** Read probe [pid]'s 8-bit counter out of VM memory. *)
let read_counter vm pid =
  let base = Vm.addr_of vm counters_sym in
  Int64.to_int
    (Ir.Types.zext_value Ir.Types.I8
       (Vm.load_mem vm Ir.Types.I8 (Int64.add base (Int64.of_int pid))))

(** Scan counters after an execution: accumulate hits into the probes'
    profiling state, return the probes that fired for the first time. *)
let harvest t vm =
  let fresh = ref [] in
  Instr.Manager.iter
    (fun (p : Instr.Probe.t) ->
      match p.Instr.Probe.payload with
      | Instr.Probe.Cov c ->
        let v = read_counter vm p.Instr.Probe.pid in
        if v > 0 then begin
          if c.Instr.Probe.cov_hits = 0 then fresh := p :: !fresh;
          c.Instr.Probe.cov_hits <- c.Instr.Probe.cov_hits + v
        end
      | _ -> ())
    t.session.Session.manager;
  List.rev !fresh

(** Untracer-style pruning: remove every probe that has fired. Returns
    the number of probes removed (a recompile is pending when > 0). *)
let prune_fired t =
  let fired =
    List.filter
      (fun (p : Instr.Probe.t) ->
        match p.Instr.Probe.payload with
        | Instr.Probe.Cov c -> c.Instr.Probe.cov_hits > 0
        | _ -> false)
      (Instr.Manager.to_list t.session.Session.manager)
  in
  List.iter (Instr.Manager.remove t.session.Session.manager) fired;
  t.pruned_total <- t.pruned_total + List.length fired;
  List.length fired

(** Map a VM execution profile's inline-counter sites back to probe ids:
    a coverage counter lives at [__odin_counters + pid], so the probe id
    is the site address' offset from the array base. Sites outside the
    counter region (other instrumentation) are dropped. *)
let probe_costs ~total vm =
  match Vm.profile vm with
  | None -> []
  | Some p ->
    let base = Int64.to_int (Vm.addr_of vm counters_sym) in
    List.filter_map
      (fun (addr, hits, cycles) ->
        let pid = addr - base in
        if pid >= 0 && pid < total then Some (pid, hits, cycles) else None)
      (Vm.profile_inc_sites p)

(** Coverage summary: how many blocks have ever fired (pruned probes
    were covered by definition). *)
let covered t =
  let n = ref t.pruned_total in
  Instr.Manager.iter
    (fun (p : Instr.Probe.t) ->
      match p.Instr.Probe.payload with
      | Instr.Probe.Cov c when c.Instr.Probe.cov_hits > 0 -> incr n
      | _ -> ())
    t.session.Session.manager;
  !n
