open Heimdall_net
open Heimdall_control

type strategy = All | Neighbor | Path | Task

let strategy_to_string = function
  | All -> "all"
  | Neighbor -> "neighbor"
  | Path -> "path"
  | Task -> "task"

let strategy_of_string = function
  | "all" -> Some All
  | "neighbor" -> Some Neighbor
  | "path" -> Some Path
  | "task" -> Some Task
  | _ -> None

(* Extra hops beyond the shortest path that [Task] considers plausible. *)
let path_slack = 2

let pairs endpoints =
  let rec go = function
    | [] -> []
    | e :: rest -> List.map (fun e' -> (e, e')) rest @ go rest
  in
  go (List.sort_uniq String.compare endpoints)

(* The devices that provide layer-3 service to a node: the owner of its
   configured default gateway.  A host's traffic cannot avoid its gateway,
   so the gateway always belongs to the task slice. *)
let gateways_of net node =
  match Network.config node net with
  | None -> []
  | Some cfg -> (
      match cfg.Heimdall_config.Ast.default_gateway with
      | None -> []
      | Some gw -> (
          match Network.owner_of_address gw net with
          | Some (owner, _) -> [ owner ]
          | None -> []))

let slice strategy net ~endpoints =
  let topo = Network.topology net in
  let known = List.filter (fun e -> Topology.mem_node e topo) endpoints in
  let g = Topology.to_graph topo in
  let nodes =
    match strategy with
    | All -> Network.node_names net
    | Neighbor ->
        List.concat_map (fun e -> e :: Topology.neighbors e topo) known
    | Path ->
        known
        @ List.concat_map
            (fun (a, b) ->
              match Graph.shortest_path a b g with
              | Some (_, path) -> path
              | None -> [])
            (pairs known)
    | Task ->
        (* Seeds: the ticket's endpoints plus their layer-3 gateways (the
           forwarding path between two hosts on one switch still crosses
           the SVI router).  Then all simple paths between each seed pair
           whose length stays within [path_slack] of the shortest — the
           candidate forwarding paths a misconfiguration could involve. *)
        let seeds =
          List.sort_uniq String.compare
            (known @ List.concat_map (gateways_of net) known)
        in
        seeds
        @ List.concat_map
            (fun (a, b) ->
              match Graph.shortest_path a b g with
              | None -> []
              | Some (_, shortest) ->
                  let budget = List.length shortest + path_slack in
                  Graph.all_paths ~max_len:budget a b g |> List.concat)
            (pairs seeds)
  in
  List.sort_uniq String.compare nodes

let slice_network strategy net ~endpoints =
  Network.restrict (slice strategy net ~endpoints) net
