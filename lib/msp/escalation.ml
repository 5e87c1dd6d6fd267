open Heimdall_control
open Heimdall_privilege

type request = {
  technician : string;
  ticket : Ticket.t;
  actions : string list;
  nodes : string list;
  justification : string;
}

type decision = Granted of Privilege.predicate | Refused of string

let ticket_kinds = [ Ticket.Connectivity; Ticket.Routing; Ticket.Vlan; Ticket.External ]

let decide ~network ~slice ~current request =
  let unknown = List.filter (fun a -> not (Action.mem a)) request.actions in
  if request.actions = [] then Refused "no actions requested"
  else if unknown <> [] then
    Refused (Printf.sprintf "unknown actions: %s" (String.concat ", " unknown))
  else if List.exists Action.is_destructive request.actions then
    Refused "destructive actions are never granted by escalation"
  else if List.mem "secret.set" request.actions then
    Refused "credential changes are never granted by escalation"
  else
    let outside = List.filter (fun n -> not (List.mem n slice)) request.nodes in
    if request.nodes = [] then Refused "no nodes requested"
    else if outside <> [] then
      Refused
        (Printf.sprintf "nodes outside the ticket's twin slice: %s"
           (String.concat ", " outside))
    else
      let non_infra =
        List.filter
          (fun n ->
            match Network.kind n network with
            | Some (Heimdall_net.Topology.Router | Heimdall_net.Topology.Switch
                   | Heimdall_net.Topology.Firewall) ->
                false
            | Some Heimdall_net.Topology.Host | None -> true)
          request.nodes
      in
      if non_infra <> [] then
        Refused
          (Printf.sprintf "repair actions on non-infrastructure nodes: %s"
             (String.concat ", " non_infra))
      else
        let fits_profile =
          List.exists
            (fun kind ->
              let profile = Priv_gen.repair_actions kind in
              List.for_all (fun a -> List.mem a profile) request.actions)
            ticket_kinds
        in
        if not fits_profile then
          Refused "requested actions match no recognised task profile"
        else
          let adds_something =
            List.exists
              (fun action ->
                List.exists
                  (fun node ->
                    not (Privilege.allows current (Privilege.request action node)))
                  request.nodes)
              request.actions
          in
          if not adds_something then Refused "escalation adds no new privilege"
          else
            Granted (Privilege.allow ~actions:request.actions ~nodes:request.nodes ())

let grant session predicate = Heimdall_twin.Session.escalate session predicate
