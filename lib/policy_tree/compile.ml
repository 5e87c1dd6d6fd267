open Heimdall_net

type crule = {
  rule : Poltree.rule;
  index : int;
  full : Packet_set.t;
  effective : Packet_set.t;
}

type cnode = {
  path : string;
  name : string;
  depth : int;
  universe : Packet_set.t;
  owners : string list;
  crules : crule list;
  decided : Packet_set.t;
  permit : Packet_set.t;
  invariant : Packet_set.t;
  is_leaf : bool;
}

type leaf = {
  leaf_path : string;
  leaf_universe : Packet_set.t;
  leaf_permit : Packet_set.t;
  leaf_requires : (string * Packet_set.t) list;
}

type compiled = {
  tree : Poltree.t;
  nodes : cnode list;
  permit : Packet_set.t;
  decided : Packet_set.t;
  requires : (string * Packet_set.t) list;
  leaves : leaf list;
}

(* ---------------- selector resolution ---------------- *)

let endpoint_prefixes tree (ep : Poltree.endpoint) =
  match ep with
  | Poltree.Any -> [ Prefix.any ]
  | Poltree.Nets l -> l
  | Poltree.Seg name -> (
      match Poltree.find_node tree name with
      | Some n -> n.Poltree.scope
      | None -> [])

let service_atoms tree (r : Poltree.service_ref) =
  match r with
  | Poltree.Inline atoms -> atoms
  | Poltree.Named n -> (
      match List.assoc_opt n tree.Poltree.services with Some s -> s | None -> [])

(* The packet set a rule selects, before clipping to the node universe. *)
let selector tree (r : Poltree.rule) =
  let srcs = endpoint_prefixes tree r.src in
  let dsts =
    match r.dst with None -> [ Prefix.any ] | Some ep -> endpoint_prefixes tree ep
  in
  let atoms = service_atoms tree r.service in
  List.fold_left
    (fun acc (a : Poltree.atom) ->
      List.fold_left
        (fun acc src ->
          List.fold_left
            (fun acc dst ->
              Packet_set.union acc
                (Packet_set.cube ~protos:a.protos ~dst_port:(a.dp_lo, a.dp_hi) ~src ~dst ()))
            acc dsts)
        acc srcs)
    Packet_set.empty atoms

let scope_set prefixes =
  List.fold_left
    (fun acc p -> Packet_set.union acc (Packet_set.cube ~src:Prefix.any ~dst:p ()))
    Packet_set.empty prefixes

(* ---------------- per-waypoint require accumulation ---------------- *)

let merge_requires a b =
  let keys =
    List.sort_uniq String.compare (List.map fst a @ List.map fst b)
  in
  List.map
    (fun w ->
      let get l = match List.assoc_opt w l with Some s -> s | None -> Packet_set.empty in
      (w, Packet_set.union (get a) (get b)))
    keys

(* ---------------- compilation ---------------- *)

type acc = {
  a_cnodes : cnode list;  (* preorder *)
  a_decided : Packet_set.t;
  a_permit : Packet_set.t;
  a_requires : (string * Packet_set.t) list;
  a_invariant : Packet_set.t;  (* union over the subtree *)
}

(* Subtract an earlier sibling's decisions from a later subtree's
   contributions — the sibling-precedence half of the semantics.  The
   caller pre-intersects [excl] with the subtree's top universe, so the
   common disjoint-sibling case costs one emptiness test. *)
let mask_acc excl acc =
  if Packet_set.is_empty excl then acc
  else
    let m s = Packet_set.diff s excl in
    {
      acc with
      a_cnodes =
        List.map
          (fun cn ->
            {
              cn with
              crules = List.map (fun cr -> { cr with effective = m cr.effective }) cn.crules;
              decided = m cn.decided;
              permit = m cn.permit;
            })
          acc.a_cnodes;
      a_decided = m acc.a_decided;
      a_permit = m acc.a_permit;
    }

let rec compile_node tree ~parent_universe ~parent_path ~depth (n : Poltree.node) =
  let path = if parent_path = "" then n.Poltree.name else parent_path ^ "/" ^ n.name in
  let universe = Packet_set.inter (scope_set n.scope) parent_universe in
  (* Children decide first, in declaration order. *)
  let child_accs =
    List.map (compile_node tree ~parent_universe:universe ~parent_path:path ~depth:(depth + 1))
      n.children
  in
  let combined =
    List.fold_left
      (fun sofar child ->
        let top_universe =
          match child.a_cnodes with cn :: _ -> cn.universe | [] -> Packet_set.empty
        in
        let excl = Packet_set.inter sofar.a_decided top_universe in
        let child = mask_acc excl child in
        {
          a_cnodes = sofar.a_cnodes @ child.a_cnodes;
          a_decided = Packet_set.union sofar.a_decided child.a_decided;
          a_permit = Packet_set.union sofar.a_permit child.a_permit;
          a_requires = merge_requires sofar.a_requires child.a_requires;
          a_invariant = Packet_set.union sofar.a_invariant child.a_invariant;
        })
      { a_cnodes = []; a_decided = Packet_set.empty; a_permit = Packet_set.empty;
        a_requires = []; a_invariant = Packet_set.empty }
      child_accs
  in
  (* Then the node's own rules, first-match over what is left. *)
  let crules, decided, permit, requires, invariant =
    List.fold_left
      (fun (crules, decided, permit, requires, invariant) (i, (r : Poltree.rule)) ->
        let full = Packet_set.inter (selector tree r) universe in
        match r.action with
        | Poltree.Require w ->
            let prior =
              match List.assoc_opt w requires with Some s -> s | None -> Packet_set.empty
            in
            let effective = Packet_set.diff full prior in
            let requires = merge_requires requires [ (w, full) ] in
            ({ rule = r; index = i; full; effective } :: crules,
             decided, permit, requires, invariant)
        | Poltree.Allow ->
            let effective = Packet_set.diff full decided in
            ({ rule = r; index = i; full; effective } :: crules,
             Packet_set.union decided effective, Packet_set.union permit effective,
             requires, invariant)
        | Poltree.Deny ->
            let effective = Packet_set.diff full decided in
            ({ rule = r; index = i; full; effective } :: crules,
             Packet_set.union decided effective, permit, requires, invariant)
        | Poltree.Deny_final ->
            let effective = Packet_set.diff full decided in
            ({ rule = r; index = i; full; effective } :: crules,
             Packet_set.union decided effective, permit, requires,
             Packet_set.union invariant full))
      ([], combined.a_decided, combined.a_permit, combined.a_requires, Packet_set.empty)
      (List.mapi (fun i r -> (i, r)) n.rules)
  in
  let cn =
    {
      path;
      name = n.name;
      depth;
      universe;
      owners = n.owners;
      crules = List.rev crules;
      decided;
      permit;
      invariant;
      is_leaf = n.children = [];
    }
  in
  {
    a_cnodes = cn :: combined.a_cnodes;
    a_decided = decided;
    a_permit = permit;
    a_requires = requires;
    a_invariant = Packet_set.union combined.a_invariant invariant;
  }

let compile tree =
  match Poltree.validate tree with
  | Error e -> Error e
  | Ok () ->
      let acc =
        compile_node tree ~parent_universe:Packet_set.full ~parent_path:"" ~depth:0
          tree.Poltree.root
      in
      (* deny! is unconditional: it beats descendants, siblings and even
         earlier allows of its own node. *)
      let permit = Packet_set.diff acc.a_permit acc.a_invariant in
      let requires =
        acc.a_requires
        |> List.map (fun (w, s) -> (w, Packet_set.inter s permit))
        |> List.filter (fun (_, s) -> not (Packet_set.is_empty s))
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let decided = Packet_set.union acc.a_decided acc.a_invariant in
      let leaves =
        acc.a_cnodes
        |> List.filter (fun cn -> cn.is_leaf)
        |> List.map (fun cn ->
               {
                 leaf_path = cn.path;
                 leaf_universe = cn.universe;
                 leaf_permit = Packet_set.inter permit cn.universe;
                 leaf_requires =
                   List.filter_map
                     (fun (w, s) ->
                       let s = Packet_set.inter s cn.universe in
                       if Packet_set.is_empty s then None else Some (w, s))
                     requires;
               })
      in
      Ok { tree; nodes = acc.a_cnodes; permit; decided; requires; leaves }

let compile_exn tree =
  match compile tree with Ok c -> c | Error e -> invalid_arg ("Poltree.compile: " ^ e)

type verdict = Permit of string list | Deny_explicit | Deny_default

let verdict c flow =
  if Packet_set.mem c.permit flow then
    Permit (List.filter_map (fun (w, s) -> if Packet_set.mem s flow then Some w else None) c.requires)
  else if Packet_set.mem c.decided flow then Deny_explicit
  else Deny_default

(* ---------------- diff ---------------- *)

type tree_diff = {
  only_a : Packet_set.t;
  only_b : Packet_set.t;
  require_drift : (string * Packet_set.t * Packet_set.t) list;
}

let diff a b =
  let common = Packet_set.inter a.permit b.permit in
  let keys =
    List.sort_uniq String.compare (List.map fst a.requires @ List.map fst b.requires)
  in
  let require_drift =
    List.filter_map
      (fun w ->
        let get c = match List.assoc_opt w c.requires with Some s -> s | None -> Packet_set.empty in
        let ra = Packet_set.inter (get a) common and rb = Packet_set.inter (get b) common in
        let oa = Packet_set.diff ra rb and ob = Packet_set.diff rb ra in
        if Packet_set.is_empty oa && Packet_set.is_empty ob then None else Some (w, oa, ob))
      keys
  in
  {
    only_a = Packet_set.diff a.permit b.permit;
    only_b = Packet_set.diff b.permit a.permit;
    require_drift;
  }

let diff_is_empty d =
  Packet_set.is_empty d.only_a && Packet_set.is_empty d.only_b && d.require_drift = []

let witness s =
  match Packet_set.sample s with
  | Some f -> Printf.sprintf " (witness %s)" (Flow.to_string f)
  | None -> ""

let render_diff d =
  if diff_is_empty d then "identical\n"
  else
    let buf = Buffer.create 256 in
    if not (Packet_set.is_empty d.only_a) then
      Buffer.add_string buf
        (Printf.sprintf "permitted only by A: %s%s\n" (Packet_set.to_string d.only_a)
           (witness d.only_a));
    if not (Packet_set.is_empty d.only_b) then
      Buffer.add_string buf
        (Printf.sprintf "permitted only by B: %s%s\n" (Packet_set.to_string d.only_b)
           (witness d.only_b));
    List.iter
      (fun (w, oa, ob) ->
        if not (Packet_set.is_empty oa) then
          Buffer.add_string buf
            (Printf.sprintf "waypoint %s required only by A: %s%s\n" w
               (Packet_set.to_string oa) (witness oa));
        if not (Packet_set.is_empty ob) then
          Buffer.add_string buf
            (Printf.sprintf "waypoint %s required only by B: %s%s\n" w
               (Packet_set.to_string ob) (witness ob)))
      d.require_drift;
    Buffer.contents buf
