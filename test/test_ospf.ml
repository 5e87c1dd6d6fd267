(* Differential tests of Ospf against the seed implementation kept in
   test/reference: the same routes for every router, list order included,
   on the paper networks with each issue injected, on a network of
   parallel links and equal-cost paths, and on random fleets
   with random single-link failures.  The one intended disagreement is a
   chain of more areas than the reference's 16 propagation rounds. *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_scenarios
module Ref = Heimdall_ospf_ref.Ospf_ref

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let adjacency_tuples_ref net l2 =
  List.map
    (fun ((a : Ref.iface), (b : Ref.iface)) -> (a.router, a.iface, b.router, b.iface))
    (Ref.adjacencies net l2)

let adjacency_tuples net l2 =
  List.map
    (fun ((a : Ospf.iface), (b : Ospf.iface)) -> (a.router, a.iface, b.router, b.iface))
    (Ospf.adjacencies net l2)

(* [None] when both implementations agree; otherwise what differs first. *)
let mismatch net =
  let l2 = L2.compute net in
  if adjacency_tuples net l2 <> adjacency_tuples_ref net l2 then Some "adjacencies differ"
  else
    let got = Ospf.all_routes net l2 and want = Ref.all_routes net l2 in
    if got = want then None
    else if List.map fst got <> List.map fst want then Some "router sets differ"
    else
      List.find_map
        (fun ((r, rs), (_, rs')) ->
          if List.compare_lengths rs rs' <> 0 then Some (r ^ ": route counts differ")
          else
            List.find_map
              (fun (a, b) ->
                if a = b then None
                else
                  Some
                    (Printf.sprintf "%s: got %s, want %s" r (Fib.route_to_string a)
                       (Fib.route_to_string b)))
              (List.combine rs rs'))
        (List.combine got want)

let check_same label net =
  match mismatch net with
  | None -> ()
  | Some m -> Alcotest.failf "%s: %s" label m

(* Parallel equal-cost links between the same routers, and two paths of
   equal cost between areas: both egress and ABR tie-breaks matter. *)
let bundles () =
  let b = Builder.create () in
  List.iter (Builder.router b) [ "a"; "b"; "c"; "d"; "e" ];
  Builder.p2p_bundle ~area:0 b "a" "b" 3;
  Builder.p2p_bundle ~area:0 b "b" "c" 2;
  ignore (Builder.p2p ~area:0 b "a" "c");
  Builder.p2p_bundle ~area:1 b "c" "d" 2;
  ignore (Builder.p2p ~area:1 b "a" "d");
  ignore (Builder.p2p ~area:2 b "d" "e");
  Builder.build b

let test_networks () =
  check_same "bundles" (bundles ());
  List.iter
    (fun (name, net, issues) ->
      check_same name net;
      List.iter
        (fun (issue : Heimdall_msp.Issue.t) ->
          check_same (name ^ "+" ^ issue.name) (issue.inject net))
        issues)
    [
      (let n = Enterprise.build () in
       ("enterprise", n, Enterprise.issues n));
      (let n = University.build () in
       ("university", n, University.issues n));
    ]

let specs =
  [|
    "fat-tree:k=4";
    "fat-tree:k=6";
    "leaf-spine:spines=2:leaves=4";
    "leaf-spine:spines=3:leaves=6";
    "multi-campus:campuses=2:buildings=2";
    "multi-campus:campuses=3:buildings=3";
  |]

(* A fleet, optionally with one of its issues injected, optionally with one
   interface shut down. *)
let fleet_case (spec, seed, issue, failure) =
  let params =
    match Fleetgen.spec_of_string (Printf.sprintf "%s:seed=%d" specs.(spec) seed) with
    | Ok p -> p
    | Error m -> invalid_arg m
  in
  let fleet = Fleetgen.generate params in
  let net =
    match List.nth_opt fleet.Fleetgen.issues issue with
    | Some (i : Heimdall_msp.Issue.t) -> i.inject fleet.Fleetgen.net
    | None -> fleet.Fleetgen.net
  in
  let candidates = Metrics.failure_candidates net in
  let net =
    if failure = 0 then net
    else
      let (ep : Topology.endpoint) =
        List.nth candidates ((failure - 1) mod List.length candidates)
      in
      Result.get_ok
        (Network.apply_changes
           [
             Change.v ep.node
               (Change.Set_interface_enabled { iface = ep.iface; enabled = false });
           ]
           net)
  in
  (Fleetgen.spec_to_string params, net)

let prop_fleets =
  QCheck.Test.make ~count:40 ~name:"all_routes matches the reference on random fleets"
    QCheck.(
      quad
        (int_bound (Array.length specs - 1))
        (int_bound 10_000) (int_bound 3) (int_bound 200))
    (fun case ->
      let label, net = fleet_case case in
      match mismatch net with
      | None -> true
      | Some m -> QCheck.Test.fail_reportf "%s: %s" label m)

(* Routers r0..rn joined in a line, link i in its own area i: every prefix
   crosses one more area border per hop.  The reference stops after 16
   propagation rounds and leaves the far end short of routes; the fixpoint
   gives it every link. *)
let chain areas =
  let b = Builder.create () in
  for i = 0 to areas do
    Builder.router b (Printf.sprintf "r%d" i)
  done;
  for i = 0 to areas - 1 do
    ignore (Builder.p2p ~area:i b (Printf.sprintf "r%d" i) (Printf.sprintf "r%d" (i + 1)))
  done;
  Builder.build b

let route_count routes router =
  List.length (Option.value (List.assoc_opt router routes) ~default:[])

let test_long_area_chain () =
  List.iter
    (fun areas ->
      let net = chain areas in
      let l2 = L2.compute net in
      let routes = Ospf.all_routes net l2 in
      let far = Printf.sprintf "r%d" areas in
      (* Every link but the far router's own. *)
      checki (Printf.sprintf "%d areas: r0 has every route" areas) (areas - 1)
        (route_count routes "r0");
      checki (Printf.sprintf "%d areas: %s has every route" areas far) (areas - 1)
        (route_count routes far);
      checkb
        (Printf.sprintf "%d areas: the capped reference falls short" areas)
        true
        (route_count (Ref.all_routes net l2) far < areas - 1))
    [ 18; 24 ]

let suite =
  [
    Alcotest.test_case "paper and bundled networks match the reference" `Quick
      test_networks;
    QCheck_alcotest.to_alcotest prop_fleets;
    Alcotest.test_case "long area chain reaches the fixpoint" `Quick test_long_area_chain;
  ]
