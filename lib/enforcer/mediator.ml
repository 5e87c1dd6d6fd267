open Heimdall_config
open Heimdall_sem

type ticket = { label : string; changes : Change.t list }

type conflict = {
  first : string;
  second : string;
  shared_footprint : (string * Plan_sem.section) list;
  overlap : Heimdall_net.Packet_set.t;
}

let analysis_of ?network (t : ticket) = Plan_sem.analyze ?network t.changes

(* Two in-flight plans conflict when they race for the same write slots
   (shared (device, section) footprint) or when, on a device both touch,
   their predicted packet-set deltas intersect — the later plan's effect
   then depends on whether the earlier one has landed yet.  Cross-device
   delta overlap alone is deliberately not a conflict: most ops carry the
   conservative [full] delta, and "both plans may affect some packet
   somewhere" would serialize every pair of tickets. *)
let conflict_between (a_label, (a : Plan_sem.t)) (b_label, (b : Plan_sem.t)) =
  let shared_footprint =
    List.filter
      (fun (node, s) ->
        List.exists
          (fun (node', s') -> node = node' && Plan_sem.section_compare s s' = 0)
          b.footprint)
      a.footprint
  in
  let overlap =
    List.fold_left
      (fun acc (node, da) ->
        match List.assoc_opt node b.device_deltas with
        | Some db -> Heimdall_net.Packet_set.union acc (Heimdall_net.Packet_set.inter da db)
        | None -> acc)
      Heimdall_net.Packet_set.empty a.device_deltas
  in
  if shared_footprint = [] && Heimdall_net.Packet_set.is_empty overlap then None
  else Some { first = a_label; second = b_label; shared_footprint; overlap }

type decision = {
  admitted : ticket list;
  held : (ticket * conflict) list;
}

(* Submission order is the priority order: a ticket is held as soon as it
   conflicts with any earlier-admitted one (first conflict wins, for a
   deterministic report).  Held tickets do not block later ones — they
   are out of flight until resubmitted. *)
let mediate ?network tickets =
  let rec go admitted held = function
    | [] -> { admitted = List.rev_map fst admitted; held = List.rev held }
    | t :: rest -> (
        let a = analysis_of ?network t in
        let blocking =
          List.find_map
            (fun (prev, prev_a) ->
              conflict_between (prev.label, prev_a) (t.label, a))
            (List.rev admitted)
        in
        match blocking with
        | Some c -> go admitted ((t, c) :: held) rest
        | None -> go ((t, a) :: admitted) held rest)
  in
  go [] [] tickets

let conflict_to_string c =
  Printf.sprintf "plan.conflict: %s vs %s — %s%s" c.first c.second
    (match c.shared_footprint with
    | [] -> "no shared write slot"
    | fp -> "shared footprint: " ^ Plan_sem.footprint_to_string fp)
    (if Heimdall_net.Packet_set.is_empty c.overlap then ""
     else
       Printf.sprintf "; predicted delta overlap (~%.3g packets)"
         (Heimdall_net.Packet_set.approx_size c.overlap))
