open Heimdall_net
open Heimdall_config
open Heimdall_control

let slice_nodes ?(strategy = Slicer.Task) ?obs ~production ~endpoints () =
  Heimdall_obs.Obs.span obs "twin.slice" (fun () ->
      let slice = Slicer.slice strategy production ~endpoints in
      Heimdall_obs.Obs.add_attr obs "nodes" (string_of_int (List.length slice));
      Heimdall_obs.Obs.set_gauge obs "twin.slice_nodes"
        (float_of_int (List.length slice));
      slice)

(* Environment stubs: for every production link with exactly one end
   inside the slice, attach a synthetic "env-<peer>" router that owns the
   peer's interface address.  The boundary subnets stay up in the twin —
   a technician can see carrier and ping the next hop — while the real
   outside device (its config, secrets, further topology) stays hidden.
   Stubs do not run any routing protocol, so no foreign routes leak in. *)
let stub_name peer = "env-" ^ peer

let with_env_stubs production sliced slice =
  let in_slice n = List.mem n slice in
  let boundary =
    List.filter
      (fun (l : Topology.link) ->
        (in_slice l.a.node && not (in_slice l.b.node))
        || (in_slice l.b.node && not (in_slice l.a.node)))
      (Topology.links (Network.topology production))
  in
  if boundary = [] then sliced
  else begin
    (* Rebuild topology: the sliced nodes and links, plus one stub node per
       outside peer and the boundary links rewired onto it. *)
    let sliced_topo = Network.topology sliced in
    let topo = ref sliced_topo in
    let stub_ifaces : (string, Ast.interface list) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (l : Topology.link) ->
        let inside, outside = if in_slice l.a.node then (l.a, l.b) else (l.b, l.a) in
        let stub = stub_name outside.node in
        if not (Topology.mem_node stub !topo) then
          topo := Topology.add_node stub Topology.Router !topo;
        (* The stub port inherits the outside interface's name/address. *)
        let outside_iface =
          match Network.config outside.node production with
          | Some cfg -> Ast.find_interface outside.iface cfg
          | None -> None
        in
        let iface =
          match outside_iface with
          | Some i ->
              { (Ast.interface ?addr:i.addr ~enabled:i.enabled outside.iface) with
                Ast.description = Some ("environment stub for " ^ outside.node) }
          | None -> Ast.interface outside.iface
        in
        Hashtbl.replace stub_ifaces stub
          (iface :: Option.value (Hashtbl.find_opt stub_ifaces stub) ~default:[]);
        topo :=
          Topology.add_link inside { Topology.node = stub; iface = outside.iface } !topo)
      boundary;
    let stub_configs =
      Hashtbl.fold
        (fun stub ifaces acc -> (stub, Ast.make ~interfaces:ifaces stub) :: acc)
        stub_ifaces []
    in
    Network.make !topo (Network.configs sliced @ stub_configs)
  end

let of_slice ?(env_stubs = false) ?obs ~production slice =
  Heimdall_obs.Obs.span obs "twin.build" (fun () ->
      let sliced = Network.restrict slice production in
      let sliced = if env_stubs then with_env_stubs production sliced slice else sliced in
      let scrubbed =
        Heimdall_obs.Obs.span obs "twin.scrub" (fun () ->
            List.fold_left
              (fun net (node, cfg) -> Network.with_config node (Redact.scrub cfg) net)
              sliced (Network.configs sliced))
      in
      Heimdall_obs.Obs.add_attr obs "nodes" (string_of_int (List.length slice));
      Emulation.create scrubbed)

let build ?strategy ?env_stubs ?obs ~production ~endpoints () =
  of_slice ?env_stubs ?obs ~production (slice_nodes ?strategy ?obs ~production ~endpoints ())

let open_session ?technician ?obs ~privilege emulation =
  Session.create ?technician ?obs ~privilege emulation
