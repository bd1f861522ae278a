(** The order statistic and interval arithmetic the end-to-end benchmark
    needs beyond [Support.Stats]. *)

(** Nearest-rank percentile: the smallest sample that at least [p]
    percent of all samples are less than or equal to. Never interpolates,
    so the result is always a measured value.
    @raise Invalid_argument on an empty list *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 1 (min n rank) - 1)

(** Total length covered by a set of [(start, length)] intervals:
    overlapping parts count once. *)
let union_length intervals =
  let ivs =
    List.filter_map
      (fun (s, d) -> if d > 0. then Some (s, s +. d) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> (
      match cur with Some (s, e) -> acc +. (e -. s) | None -> acc)
    | (s, e) :: rest -> (
      match cur with
      | None -> go acc (Some (s, e)) rest
      | Some (cs, ce) when s <= ce -> go acc (Some (cs, Float.max ce e)) rest
      | Some (cs, ce) -> go (acc +. (ce -. cs)) (Some (s, e)) rest)
  in
  go 0. None ivs

(** Self time of a span that starts at [start] and lasts [dur]: its
    duration minus the part of it its children cover. Children may
    overlap each other (fragment jobs run on several domains), so their
    union is subtracted, not their sum. *)
let self_time ~start ~dur children =
  let stop = start +. dur in
  let clipped =
    List.map
      (fun (s, d) ->
        let s' = Float.max s start and e' = Float.min (s +. d) stop in
        (s', e' -. s'))
      children
  in
  Float.max 0. (dur -. union_length clipped)
