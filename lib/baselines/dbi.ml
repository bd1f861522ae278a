(** Dynamic-binary-instrumentation baselines, built on the VM's
    block-entry hook over the *uninstrumented* binary — exactly the
    situation of a DBI tool attached to a stock executable.

    DrCov (DynamoRIO): just-in-time binary translation. The first
    execution of each basic block pays a translation cost proportional to
    the block's size; every entry pays code-cache dispatch plus the
    inline coverage counter the tool plants in the translated block. The
    translation cache persists across executions (the fork-server model),
    so steady-state overhead is dispatch + counter.

    libInst (DynInst static rewriting): every instrumented block detours
    through a trampoline that saves and restores machine context around
    the instrumentation snippet — the paper measures a median 19.2x
    slowdown for this design; the per-entry cost constant reflects the
    full context save/restore and instrumentation call. *)

type costs = {
  c_translate_per_inst : int;  (** JIT translation, per instruction *)
  c_translate_fixed : int;  (** per-block translation overhead *)
  c_dispatch : int;  (** per block entry: code-cache dispatch/linking *)
  c_counter : int;  (** per block entry: coverage counter update *)
  c_trampoline : int;  (** libInst: per entry context save/restore *)
}

let default_costs =
  {
    c_translate_per_inst = 6;
    c_translate_fixed = 60;
    c_dispatch = 5;
    c_counter = 5;
    c_trampoline = 330;
  }

type kind = Drcov | Libinst

type t = {
  kind : kind;
  costs : costs;
  translated : (string * int, unit) Hashtbl.t;  (** DrCov code cache *)
}

let create ?(costs = default_costs) kind =
  { kind; costs; translated = Hashtbl.create 256 }

let block_length (mf : Codegen.Mach.mfunc) idx =
  let start, _ = mf.Codegen.Mach.mf_blocks.(idx) in
  let stop =
    if idx + 1 < Array.length mf.Codegen.Mach.mf_blocks then
      fst mf.Codegen.Mach.mf_blocks.(idx + 1)
    else Array.length mf.Codegen.Mach.mf_code
  in
  stop - start

(** Attach the engine to a (fresh) VM; state persists across VMs. *)
let attach t vm =
  let costs = t.costs in
  Vm.set_block_hook vm (fun vm fname bidx ->
      match t.kind with
      | Drcov ->
        let key = (fname, bidx) in
        if not (Hashtbl.mem t.translated key) then begin
          Hashtbl.replace t.translated key ();
          let len =
            match Link.Linker.find_func vm.Vm.exe fname with
            | Some mf -> block_length mf bidx
            | None -> 4
          in
          Vm.add_cycles vm (costs.c_translate_fixed + (costs.c_translate_per_inst * len))
        end;
        Vm.add_cycles vm (costs.c_dispatch + costs.c_counter)
      | Libinst -> Vm.add_cycles vm (costs.c_trampoline + costs.c_counter))
