(* Workload inputs, generated from the workload seed.

   The program under test only ever receives the values built here: a
   production network, its policies and a list of [Issue.t] tickets (or,
   for the sweep, just the network and policies). *)

open Heimdall_control
open Heimdall_verify
open Heimdall_msp
open Heimdall_scenarios

type ticket = {
  origin : string;  (** Where the ticket came from, e.g. ["fleet-seed=123"]. *)
  issue : Issue.t;
  key : string;  (** Identity of the ticket; keys its pinned outputs. *)
}

type tickets = {
  production : Network.t;
  policies : Policy.t list;
  cycle : ticket list list;
      (** The closed loop replays these groups in order; a group holds one
          ticket of each kind and is one timed unit. *)
  distinct : ticket list;  (** One entry per key, in first-seen order. *)
}

let key_of (issue : Issue.t) =
  Printf.sprintf "%s@%s:%s" issue.name issue.root_cause
    (String.concat "," issue.ticket.endpoints)

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let distinct_of groups =
  let cycle = List.concat groups in
  List.rev
    (List.fold_left
       (fun acc t -> if List.exists (fun u -> u.key = t.key) acc then acc else t :: acc)
       [] cycle)

(* Deal the tickets of each kind, each kind's list shuffled, into groups
   of one ticket per kind, and shuffle the order within each group.
   Every kind list must have the same length. *)
let groups_of st kinds =
  let kinds = List.map (fun l -> Array.of_list (shuffle st l)) kinds in
  List.init (Array.length (List.hd kinds)) (fun i -> shuffle st (List.map (fun a -> a.(i)) kinds))

(* Fleet seeds are drawn from the workload seed until every edge subnet
   has hosted both a [misconfig] and a [drift] placement.  The list then
   holds each of those placements once plus as many [overgrant] tickets
   (whose placement does not depend on the fleet seed), so the three
   issue kinds have equal shares.  The fleet itself does not depend on
   the fleet seed; that is checked here rather than assumed. *)
let fattree ~seed =
  let st = Random.State.make [| 0xFA77; seed |] in
  let params = Fleetgen.default_params (Fleetgen.Fat_tree { k = 4 }) in
  let base = Fleetgen.generate params in
  let n_edges = List.length base.edges in
  let base_digest = Network.digest base.net in
  let found name acc = List.length (List.filter (fun t -> t.issue.name = name) acc) in
  let rec draw acc overgrant tries =
    if found "misconfig" acc = n_edges && found "drift" acc = n_edges then (acc, overgrant)
    else if tries > 10_000 then failwith "fattree: placements never covered"
    else
      let fleet_seed = Random.State.bits st in
      let fleet = Fleetgen.generate { params with seed = fleet_seed } in
      if Network.digest fleet.net <> base_digest then
        failwith "fattree: fleet network depends on the fleet seed";
      let origin = Printf.sprintf "fleet-seed=%d" fleet_seed in
      let fresh =
        List.filter_map
          (fun (issue : Issue.t) ->
            let key = key_of issue in
            if issue.name = "overgrant" || List.exists (fun t -> t.key = key) acc then None
            else Some { origin; issue; key })
          fleet.issues
      in
      let overgrant =
        List.filter_map
          (fun (issue : Issue.t) ->
            if issue.name = "overgrant" then Some { origin; issue; key = key_of issue }
            else None)
          fleet.issues
        @ overgrant
      in
      draw (acc @ fresh) overgrant (tries + 1)
  in
  let placements, overgrant = draw [] [] 0 in
  (* Overgrant tickets come from the most recent fleet seeds drawn. *)
  let overgrant = List.filteri (fun i _ -> i < n_edges) overgrant in
  let of_kind name = List.filter (fun t -> t.issue.name = name) placements in
  let cycle = groups_of st [ of_kind "misconfig"; of_kind "drift"; overgrant ] in
  { production = base.net; policies = base.policies; cycle; distinct = distinct_of cycle }

(* The three university issues, in eight groups of one each, each group
   in a seeded order. *)
let university ~seed =
  let st = Random.State.make [| 0x0411; seed |] in
  let net = University.build () in
  let cycle =
    groups_of st
      (List.map
         (fun (issue : Issue.t) ->
           List.init 8 (fun i ->
               { origin = Printf.sprintf "university#%d" i; issue; key = key_of issue }))
         (University.issues net))
  in
  { production = net; policies = University.policies net; cycle; distinct = distinct_of cycle }

let print_tickets name t =
  Printf.printf "%s: %d groups of %d tickets per cycle, %d distinct tickets\n" name
    (List.length t.cycle)
    (List.length (List.hd t.cycle))
    (List.length t.distinct);
  List.iteri
    (fun g group ->
      List.iter
        (fun t ->
          Printf.printf "  ticket %d  %-18s %-9s root=%s\n" g t.origin t.issue.name
            t.issue.root_cause)
        group)
    t.cycle
