(** Global probe-saturation tallies for multi-campaign pruning.

    Untracer-style pruning removes a coverage probe once it has fired —
    but in a fuzzing farm each worker only sees its own executions, and
    pruning locally would make instrumentation state diverge across
    workers. Instead every worker reports which probes fired in each
    execution, the farm records one {e vote} per (probe, execution)
    here, and a probe is pruned only when its tally reaches a global
    quorum — so the farm converges to the same pruned instrumentation a
    long single campaign would.

    Every vote counts one: a worker process restarted mid-round re-runs
    a bit-identical assignment, so its votes are the same evidence an
    unkilled worker would cast.

    Purely sequential: the farm tallies at its sync barrier, in global
    execution order. *)

type t = { tally : (int, int) Hashtbl.t (* pid -> fired-execution votes *) }

let create () = { tally = Hashtbl.create 97 }

(** Record one execution in which probe [pid] fired. *)
let record t ~pid =
  Hashtbl.replace t.tally pid (1 + Option.value ~default:0 (Hashtbl.find_opt t.tally pid))

(** Votes recorded for [pid] (0 when never seen). *)
let count t pid = Option.value ~default:0 (Hashtbl.find_opt t.tally pid)

(** Probes whose tally has reached [quorum], excluding those [already]
    acted upon; sorted ascending so callers apply them in a
    deterministic order. A non-positive [quorum] never saturates. *)
let saturated t ~quorum ~already =
  if quorum <= 0 then []
  else
    Hashtbl.fold
      (fun pid n acc -> if n >= quorum && not (already pid) then pid :: acc else acc)
      t.tally []
    |> List.sort compare

(** Fold the other tally into [into] (e.g. a late worker's local votes). *)
let merge ~into other =
  Hashtbl.iter
    (fun pid n ->
      Hashtbl.replace into.tally pid
        (n + Option.value ~default:0 (Hashtbl.find_opt into.tally pid)))
    other.tally

(** Number of distinct probes with at least one vote. *)
let distinct t = Hashtbl.length t.tally

(** Every (pid, tally) pair, ascending by pid — for checkpointing. *)
let entries t =
  Hashtbl.fold (fun pid n acc -> (pid, n) :: acc) t.tally [] |> List.sort compare

(** Rebuild a tally from [entries] output. *)
let restore pairs =
  let t = create () in
  List.iter (fun (pid, n) -> Hashtbl.replace t.tally pid n) pairs;
  t
