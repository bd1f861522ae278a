(** The uninstrumented reference build: whole-program O2 compile of the
    pristine IR. Every figure normalizes execution durations against this
    binary (the red bar in Figures 8-10). *)

let build ?(keep = [ "target_main" ]) ?(host = []) (m : Ir.Modul.t) =
  let copy = Ir.Clone.clone_module m in
  ignore (Opt.Pipeline.run ~keep copy);
  Ir.Verify.run_exn copy;
  let obj = Link.Objfile.of_module copy in
  Link.Incremental.link ~host [ obj ]
