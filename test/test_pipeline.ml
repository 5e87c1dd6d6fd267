(* The one ticket pipeline: ticket preparation (Workflow.prepare), the
   network-wide ACL diff (Acl_sem.network_diffs), the plan-soundness
   oracle (Plan_oracle) and the fleet pipeline with its gates
   (Scale.run). *)

open Heimdall_net
open Heimdall_config
open Heimdall_control
open Heimdall_sem
open Heimdall_scenarios
module Workflow = Heimdall_msp.Workflow

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let scenario name = Option.get (Experiments.scenario_of_name name)
let scenario_names = [ "enterprise"; "university"; "fleet:fat-tree:k=4" ]

(* ---------------- Workflow.prepare ---------------- *)

let test_prepare_matches_session_grant () =
  List.iter
    (fun name ->
      let sc = scenario name in
      List.iter
        (fun (issue : Heimdall_msp.Issue.t) ->
          let label = name ^ "/" ^ issue.name in
          let p = Workflow.prepare ~production:sc.net issue in
          let run =
            Workflow.run_heimdall ~production:sc.net ~policies:sc.policies ~issue ()
          in
          checks (label ^ ": grant") (Heimdall_privilege.Privilege.to_string p.privilege)
            (Heimdall_privilege.Privilege.to_string
               (Heimdall_twin.Session.privilege run.session));
          checkb (label ^ ": broken network") true
            (Digest.equal (Network.digest p.broken)
               (Network.digest (issue.inject sc.net)));
          checkb (label ^ ": slice non-empty") true (p.slice <> []))
        sc.issues)
    scenario_names

(* ---------------- Acl_sem.network_diffs ---------------- *)

let test_network_diffs () =
  let net = (scenario "enterprise").net in
  let edit node f net =
    let cfg = Option.get (Network.config node net) in
    Network.with_config node (f cfg) net
  in
  let srv = Option.get (Ast.find_acl "SRV_PROT" (Option.get (Network.config "r8" net))) in
  checkb "identical networks: no diffs" true (Acl_sem.network_diffs ~before:net ~after:net = []);
  (* A trailing deny restates the implicit one: the text changes, the
     semantics do not, so the diff is dropped. *)
  let restated =
    edit "r8"
      (Ast.update_acl
         (Acl.add_rule (Acl.rule ~seq:9999 Acl.Deny Prefix.any Prefix.any) srv))
      net
  in
  checkb "semantically empty edit dropped" true
    (Acl_sem.network_diffs ~before:net ~after:restated = []);
  (* Removing the ACL compares it against the empty list: everything it
     permitted is newly denied. *)
  let removed = edit "r8" (Ast.remove_acl "SRV_PROT") net in
  (match Acl_sem.network_diffs ~before:net ~after:removed with
  | [ (node, acl, d) ] ->
      checks "node" "r8" node;
      checks "acl" "SRV_PROT" acl;
      checkb "newly denied = old permit set" true
        (Packet_set.equal d.newly_denied (Acl_sem.permit_set srv));
      checkb "nothing newly permitted" true (Packet_set.is_empty d.newly_permitted)
  | ds -> Alcotest.failf "expected one diff, got %d" (List.length ds));
  (* An ACL only on the after side compares against the empty list too. *)
  let fresh = Acl.make "NEW" [ Acl.rule ~seq:10 Acl.Permit Prefix.any Prefix.any ] in
  let added = edit "r1" (Ast.update_acl fresh) net in
  match Acl_sem.network_diffs ~before:net ~after:added with
  | [ ("r1", "NEW", d) ] ->
      checkb "newly permitted = new permit set" true
        (Packet_set.equal d.newly_permitted (Acl_sem.permit_set fresh))
  | ds -> Alcotest.failf "expected one diff on r1/NEW, got %d" (List.length ds)

(* ---------------- Plan_oracle ---------------- *)

let test_oracle_sound () =
  List.iter
    (fun name ->
      let sc = scenario name in
      List.iter
        (fun (issue : Heimdall_msp.Issue.t) ->
          let label = name ^ "/" ^ issue.name in
          let v =
            Plan_oracle.check ~policies:sc.policies ~label
              (Plan_oracle.replay (Workflow.prepare ~production:sc.net issue))
          in
          checkb (label ^ ": sound") true (Plan_oracle.sound v);
          checkb (label ^ ": no failures") true (Plan_oracle.failures v = []))
        sc.issues)
    scenario_names

let test_oracle_reports_unsound () =
  let v =
    {
      Plan_oracle.label = "t";
      findings = [];
      requirements = [];
      delta_contained = false;
      sufficient = true;
      denied = 1;
      rejected = 0;
    }
  in
  checkb "unsound" false (Plan_oracle.sound v);
  checki "one message per broken criterion" 2 (List.length (Plan_oracle.failures v));
  checkb "insufficient grant never disagrees" true
    (Plan_oracle.sufficiency_agrees { v with sufficient = false })

(* ---------------- Scale.run ---------------- *)

let fat_tree = Result.get_ok (Fleetgen.spec_of_string "fat-tree:k=4")

let test_scale_gates () =
  let r = Scale.run ~domains:2 ~issues:`All fat_tree in
  List.iter (fun (g : Scale.gate) -> checkb g.name true g.ok) r.gates;
  checkb "passed" true (Scale.passed r);
  checki "every issue ran" (List.length r.fleet.issues) (List.length r.issues);
  checki "one gate per issue" (List.length r.issues)
    (List.length
       (List.filter
          (fun (g : Scale.gate) -> match g.stage with Scale.Issue _ -> true | _ -> false)
          r.gates))

let test_scale_issue_selection () =
  let none = Scale.run ~domains:2 ~issues:`None fat_tree in
  checkb "no issue rows" true (none.issues = []);
  checkb "still passes" true (Scale.passed none);
  let first = Scale.run ~domains:2 ~issues:`First fat_tree in
  checki "one issue row" 1 (List.length first.issues)

let suite =
  [
    Alcotest.test_case "prepare matches the session grant" `Quick
      test_prepare_matches_session_grant;
    Alcotest.test_case "network_diffs" `Quick test_network_diffs;
    Alcotest.test_case "oracle sound on scenario and fleet tickets" `Quick
      test_oracle_sound;
    Alcotest.test_case "oracle reports unsound verdicts" `Quick
      test_oracle_reports_unsound;
    Alcotest.test_case "scale gates on fat-tree k=4" `Quick test_scale_gates;
    Alcotest.test_case "scale issue selection" `Quick test_scale_issue_selection;
  ]
