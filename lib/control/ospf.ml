open Heimdall_net
open Heimdall_config

type iface = { router : string; iface : string; addr : Ifaddr.t; area : int; cost : int }

let default_cost = 10

let enabled_interfaces net =
  List.concat_map
    (fun (router, (cfg : Ast.t)) ->
      match cfg.ospf with
      | None -> []
      | Some o ->
          List.filter_map
            (fun (i : Ast.interface) ->
              match i.addr with
              | Some addr when i.enabled -> (
                  let statement =
                    List.find_opt
                      (fun (p, _) -> Prefix.contains p (Ifaddr.address addr))
                      o.networks
                  in
                  match statement with
                  | None -> None
                  | Some (_, stmt_area) ->
                      let area = Option.value i.ospf_area ~default:stmt_area in
                      let cost = Option.value i.ospf_cost ~default:default_cost in
                      Some { router; iface = i.if_name; addr; area; cost })
              | _ -> None)
            cfg.interfaces)
    (Network.configs net)

(* Only interfaces in the same (area, subnet) bucket can pair, so the join
   looks inside buckets.  Pairs come out in the order of a pairwise scan of
   [ifaces] — each interface with its partners later in the list — because
   the egress tie-break in [all_routes] depends on that order. *)
let join l2 ifaces =
  let ifaces = Array.of_list ifaces in
  let key i = (i.area, Ifaddr.subnet i.addr) in
  let domain =
    Array.map
      (fun i -> L2.domain_of { Topology.node = i.router; iface = i.iface } l2)
      ifaces
  in
  let buckets = Hashtbl.create 64 in
  for k = Array.length ifaces - 1 downto 0 do
    let b = key ifaces.(k) in
    Hashtbl.replace buckets b (k :: Option.value (Hashtbl.find_opt buckets b) ~default:[])
  done;
  let pairs = ref [] in
  Array.iteri
    (fun k a ->
      List.iter
        (fun k' ->
          let b = ifaces.(k') in
          if
            k' > k && a.router <> b.router
            && domain.(k) <> None
            && domain.(k) = domain.(k')
          then pairs := (if a.router < b.router then (a, b) else (b, a)) :: !pairs)
        (Hashtbl.find buckets (key a)))
    ifaces;
  List.rev !pairs

let adjacencies net l2 = join l2 (enabled_interfaces net)

(* The routing computation below is a simplified SPF + inter-area summary
   propagation:
   1. build one weighted graph per area from the formed adjacencies;
   2. every attached subnet is "originated" into its area at its interface
      cost (default-originate routers originate 0.0.0.0/0 at cost 1);
   3. propagate summaries across area border routers to a fixpoint,
      keeping for each (router, prefix) the best metric and the first-hop
      neighbour it was learned through.

   Routers and prefixes are numbered once; router ids follow name order, so
   integer comparisons break ties exactly as name comparisons would. *)

type learned = {
  r : int;
  p : int;
  mutable metric : int;
  mutable hop : int;  (** First-hop router; -1 when [r] originates [p]. *)
  mutable area : int;  (** Area [hop] was learned through. *)
  mutable dirty : bool;  (** Changed since an ABR last propagated it. *)
}

type area = {
  members : int array;  (** Router ids, ascending. *)
  local : int array;  (** Router id -> index into [members], or -1. *)
  succs : (int * int) list array;  (** Local neighbour, weight. *)
  dist : int array;  (** [dist.(t * n + s)]: distance from [s] to [t] (local). *)
  hop : int array;
      (** [hop.(t * n + s)]: first-hop router id from [s] towards [t]; -1
          when [s = t] or [t] is unreachable. *)
}

module Pq = Set.Make (struct
  type t = int * int

  let compare (d1, v1) (d2, v2) =
    match Int.compare d1 d2 with 0 -> Int.compare v1 v2 | c -> c
end)

(* Dijkstra keeping only distances and first hops.  Same rules as
   [Graph.shortest_paths]: vertices settle in (distance, id) order and an
   equal-cost predecessor replaces the current one only if its id is
   smaller. *)
let first_hops g src =
  let n = Array.length g.members in
  let at v = (v * n) + src in
  let prev = Array.make n (-1) in
  let settled = Array.make n false in
  g.dist.(at src) <- 0;
  let pq = ref (Pq.singleton (0, src)) in
  while not (Pq.is_empty !pq) do
    let ((d, u) as entry) = Pq.min_elt !pq in
    pq := Pq.remove entry !pq;
    if not settled.(u) then begin
      settled.(u) <- true;
      List.iter
        (fun (v, w) ->
          if w < 0 then invalid_arg "Graph.shortest_paths: negative weight";
          let cand = d + w in
          let cur = g.dist.(at v) in
          let better = cur = max_int || cand < cur || (cand = cur && u < prev.(v)) in
          if better && not settled.(v) then begin
            g.dist.(at v) <- cand;
            prev.(v) <- u;
            g.hop.(at v) <- (if u = src then g.members.(v) else g.hop.(at u));
            pq := Pq.add (cand, v) !pq
          end)
        g.succs.(u)
    end
  done

let all_routes net l2 =
  let ifaces = enabled_interfaces net in
  let adjs = join l2 ifaces in
  let names =
    Array.of_list
      (List.sort_uniq String.compare (List.map (fun (i : iface) -> i.router) ifaces))
  in
  let nr = Array.length names in
  let rid = Hashtbl.create nr in
  Array.iteri (fun k n -> Hashtbl.replace rid n k) names;
  let router_id n = Hashtbl.find rid n in
  let areas_of = Array.make nr [] in
  List.iter
    (fun (i : iface) ->
      let r = router_id i.router in
      if not (List.mem i.area areas_of.(r)) then areas_of.(r) <- i.area :: areas_of.(r))
    ifaces;
  Array.iteri (fun r l -> areas_of.(r) <- List.sort Int.compare l) areas_of;
  (* Per-area graphs over local indexes. *)
  let areas = Hashtbl.create 16 in
  Array.iteri
    (fun r l ->
      List.iter
        (fun a ->
          let rs = Option.value (Hashtbl.find_opt areas a) ~default:[] in
          Hashtbl.replace areas a (r :: rs))
        l)
    areas_of;
  let areas =
    Hashtbl.fold
      (fun a rs acc ->
        let members = Array.of_list (List.rev rs) in
        let local = Array.make nr (-1) in
        Array.iteri (fun l r -> local.(r) <- l) members;
        let n = Array.length members in
        Hashtbl.replace acc a
          {
            members;
            local;
            succs = Array.make n [];
            dist = Array.make (n * n) max_int;
            hop = Array.make (n * n) (-1);
          };
        acc)
      areas (Hashtbl.create 16)
  in
  List.iter
    (fun ((a : iface), (b : iface)) ->
      let g = Hashtbl.find areas a.area in
      let la = g.local.(router_id a.router) and lb = g.local.(router_id b.router) in
      g.succs.(la) <- (lb, a.cost) :: g.succs.(la);
      g.succs.(lb) <- (la, b.cost) :: g.succs.(lb))
    adjs;
  Hashtbl.iter (fun _ g -> Array.iteri (fun s _ -> first_hops g s) g.members) areas;
  (* Prefix ids, each prefix rendered once. *)
  let pid = Hashtbl.create 64 in
  let prefixes = ref [] in
  let prefix_id p =
    match Hashtbl.find_opt pid p with
    | Some k -> k
    | None ->
        let k = Hashtbl.length pid in
        Hashtbl.add pid p k;
        prefixes := p :: !prefixes;
        k
  in
  (* Origins: (prefix, originating router, area, origin cost). *)
  let origins =
    List.map
      (fun (i : iface) ->
        (prefix_id (Ifaddr.subnet i.addr), router_id i.router, i.area, i.cost))
      ifaces
    @ List.concat_map
        (fun (r, (cfg : Ast.t)) ->
          match (cfg.ospf, Hashtbl.find_opt rid r) with
          | Some o, Some r when o.default_originate ->
              List.map (fun a -> (prefix_id Prefix.any, r, a, 1)) areas_of.(r)
          | _ -> [])
        (Network.configs net)
  in
  let prefixes = Array.of_list (List.rev !prefixes) in
  let np = Array.length prefixes in
  let prefix_names = Array.map Prefix.to_string prefixes in
  (* [best] keeps its (router, prefix string) key and its insertion order:
     its iteration order decides which ABR is propagated first, and so the
     first hop on equal-cost ties.  [cells] indexes the same records by
     [p * nr + r]. *)
  let best : (string * string, learned) Hashtbl.t = Hashtbl.create 64 in
  let absent = { r = -1; p = -1; metric = max_int; hop = -1; area = 0; dirty = false } in
  let cells = Array.make (np * nr) absent in
  let update r p metric hop area =
    let k = (p * nr) + r in
    let e = cells.(k) in
    if e != absent && e.metric <= metric then false
    else begin
      if e == absent then begin
        let e = { r; p; metric; hop; area; dirty = true } in
        cells.(k) <- e;
        Hashtbl.add best (names.(r), prefix_names.(p)) e
      end
      else begin
        e.metric <- metric;
        e.hop <- hop;
        e.area <- area;
        e.dirty <- true
      end;
      true
    end
  in
  let learn_via_area area advertiser p base_metric =
    (* Every router in [area] can learn [p] through [advertiser]. *)
    let g = Hashtbl.find areas area in
    let n = Array.length g.members in
    let row = g.local.(advertiser) * n in
    let changed = ref false in
    for s = 0 to n - 1 do
      let hop = g.hop.(row + s) in
      if hop >= 0 && update g.members.(s) p (g.dist.(row + s) + base_metric) hop area then
        changed := true
    done;
    !changed
  in
  List.iter
    (fun (p, origin, area, cost) ->
      ignore (learn_via_area area origin p cost);
      (* The originator itself reaches the prefix at its own cost —
         recorded so ABRs can re-advertise subnets they are attached to. *)
      ignore (update origin p cost (-1) area))
    origins;
  (* ABR rounds.  Re-seeding the origins could change nothing, and an entry
     propagated with its current value would only offer candidates no better
     than the ones it offered before; so each round takes the entries that
     changed since their last propagation, with the values they have at the
     start of the round, in [best]'s fold order.  Every update strictly
     lowers a metric bounded below, over finitely many keys, so the rounds
     reach the fixpoint. *)
  let abr_round () =
    let work =
      Hashtbl.fold
        (fun _ (e : learned) acc ->
          if e.dirty && List.compare_length_with areas_of.(e.r) 1 > 0 then begin
            e.dirty <- false;
            (e.r, e.p, e.metric, e.hop, e.area) :: acc
          end
          else acc)
        best []
    in
    List.fold_left
      (fun changed (r, p, m, hop, learned_area) ->
        List.fold_left
          (fun changed b ->
            if hop < 0 || learned_area <> b then learn_via_area b r p m || changed
            else changed)
          changed areas_of.(r))
      false work
  in
  while abr_round () do
    ()
  done;
  (* Materialise per-router routes. *)
  let own = Bytes.make (nr * np) '\000' in
  List.iter
    (fun (i : iface) ->
      Bytes.set own ((prefix_id (Ifaddr.subnet i.addr) * nr) + router_id i.router) '\001')
    ifaces;
  (* (router, neighbour) -> per area, the egress iface and next-hop address
     of the lowest-cost adjacency, the first in adjacency order on ties. *)
  let egress = Hashtbl.create 64 in
  let note (mine : iface) (theirs : iface) =
    let key = (router_id mine.router * nr) + router_id theirs.router in
    let known = Option.value (Hashtbl.find_opt egress key) ~default:[] in
    match List.assoc_opt mine.area known with
    | Some (cost, _, _) when cost <= mine.cost -> ()
    | _ ->
        Hashtbl.replace egress key
          ((mine.area, (mine.cost, mine.iface, Some (Ifaddr.address theirs.addr)))
          :: List.remove_assoc mine.area known)
  in
  List.iter
    (fun (a, b) ->
      note a b;
      note b a)
    adjs;
  let per_router = Array.make nr [] in
  Hashtbl.iter
    (fun _ (e : learned) ->
      if e.hop >= 0 && Bytes.get own ((e.p * nr) + e.r) = '\000' then
        match
          Option.bind
            (Hashtbl.find_opt egress ((e.r * nr) + e.hop))
            (List.assoc_opt e.area)
        with
        | None -> ()
        | Some (_, out_iface, next_hop) ->
            let route =
              {
                Fib.prefix = prefixes.(e.p);
                next_hop;
                out_iface;
                protocol = Fib.Ospf;
                distance = Fib.admin_distance Fib.Ospf;
                metric = e.metric;
              }
            in
            per_router.(e.r) <- route :: per_router.(e.r))
    best;
  Array.to_list names
  |> List.mapi (fun r name -> (name, per_router.(r)))
  |> List.filter (fun (_, rs) -> rs <> [])
