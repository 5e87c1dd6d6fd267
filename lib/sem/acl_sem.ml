open Heimdall_net

(* For each rule, in order, the packets it actually decides: its match
   set minus everything earlier rules already matched (empty = dead).
   One left-to-right pass: [covered] is the union of every earlier rule's
   match set, so each rule's decided set is just its match set minus
   [covered] — first-match-wins, compiled. *)
let decided_sets (acl : Acl.t) =
  let _, decided =
    List.fold_left
      (fun (covered, acc) (r : Acl.rule) ->
        let rs = Acl.rule_packets r in
        let d = Packet_set.diff rs covered in
        (Packet_set.union covered rs, (r, d) :: acc))
      (Packet_set.empty, []) acl.rules
  in
  List.rev decided

let permit_set acl =
  List.fold_left
    (fun acc ((r : Acl.rule), d) ->
      match r.action with
      | Acl.Permit -> Packet_set.union acc d
      | Acl.Deny -> acc)
    Packet_set.empty (decided_sets acl)

let deny_set acl = Packet_set.complement (permit_set acl)

let equivalent a b = Packet_set.equal (permit_set a) (permit_set b)

type diff = { newly_permitted : Packet_set.t; newly_denied : Packet_set.t }

let diff ~before ~after =
  let pb = permit_set before and pa = permit_set after in
  { newly_permitted = Packet_set.diff pa pb; newly_denied = Packet_set.diff pb pa }

let diff_is_empty d =
  Packet_set.is_empty d.newly_permitted && Packet_set.is_empty d.newly_denied

let network_diffs ~before ~after =
  let acls node net =
    match Heimdall_control.Network.config node net with
    | Some (cfg : Heimdall_config.Ast.t) -> cfg.acls
    | None -> []
  in
  let find name acls =
    Option.value ~default:(Acl.empty name)
      (List.find_opt (fun (a : Acl.t) -> a.name = name) acls)
  in
  List.concat_map
    (fun node ->
      let b = acls node before and a = acls node after in
      List.filter_map
        (fun name ->
          let d = diff ~before:(find name b) ~after:(find name a) in
          if diff_is_empty d then None else Some (node, name, d))
        (List.sort_uniq String.compare (List.map (fun (x : Acl.t) -> x.name) (b @ a))))
    (Heimdall_control.Network.node_names after)

let diff_witnesses d =
  (match Packet_set.sample d.newly_permitted with
  | Some f -> [ ("newly-permitted", f) ]
  | None -> [])
  @
  match Packet_set.sample d.newly_denied with
  | Some f -> [ ("newly-denied", f) ]
  | None -> []

let diff_to_string d =
  if diff_is_empty d then "no semantic change"
  else
    String.concat "; "
      ((if Packet_set.is_empty d.newly_permitted then []
        else
          [
            Printf.sprintf "newly permitted: %s (e.g. %s)"
              (Packet_set.to_string d.newly_permitted)
              (match Packet_set.sample d.newly_permitted with
              | Some f -> Flow.to_string f
              | None -> "-");
          ])
      @
      if Packet_set.is_empty d.newly_denied then []
      else
        [
          Printf.sprintf "newly denied: %s (e.g. %s)"
            (Packet_set.to_string d.newly_denied)
            (match Packet_set.sample d.newly_denied with
            | Some f -> Flow.to_string f
            | None -> "-");
        ])

type dead = {
  rule : Acl.rule;
  subsumer : Acl.rule option;
  coverers : int list;
  conflict : bool;
  witness : Flow.t option;
}

let dead_rules (acl : Acl.t) =
  (* [earlier] is kept nearest-first so the pairwise subsumer we report
     is the closest preceding rule — matching the historical walk. *)
  let rec go covered opposite_decided earlier acc = function
    | [] -> List.rev acc
    | (r : Acl.rule) :: rest ->
        let rs = Acl.rule_packets r in
        let acc =
          if Packet_set.is_empty (Packet_set.diff rs covered) then begin
            let subsumer =
              List.find_opt (fun (e : Acl.rule) -> Acl.rule_subsumes e r) earlier
            in
            let coverers =
              List.filter_map
                (fun ((e : Acl.rule), d) ->
                  if Packet_set.is_empty (Packet_set.inter d rs) then None
                  else Some e.seq)
                opposite_decided
            in
            (* Traffic of [r] that earlier rules decide with the action
               [r] would not have taken. *)
            let conflicting =
              List.fold_left
                (fun s ((e : Acl.rule), d) ->
                  if e.action <> r.action then
                    Packet_set.union s (Packet_set.inter d rs)
                  else s)
                Packet_set.empty opposite_decided
            in
            let conflict = not (Packet_set.is_empty conflicting) in
            let witness =
              if conflict then Packet_set.sample conflicting else Packet_set.sample rs
            in
            { rule = r; subsumer; coverers; conflict; witness } :: acc
          end
          else acc
        in
        let d = Packet_set.diff rs covered in
        go (Packet_set.union covered rs)
          (opposite_decided @ [ (r, d) ])
          (r :: earlier) acc rest
  in
  go Packet_set.empty [] [] [] acl.rules
