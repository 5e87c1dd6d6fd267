open Heimdall_net
open Heimdall_msp
open Heimdall_twin
open Heimdall_sem

type replay = {
  prepared : Workflow.prepared;
  emulation : Emulation.t;
  session : Session.t;
  changes : Heimdall_config.Change.t list;
}

let replay (prepared : Workflow.prepared) =
  let issue = prepared.issue in
  let emulation =
    Twin.build ~production:prepared.broken ~endpoints:issue.ticket.endpoints ()
  in
  let session = Twin.open_session ~privilege:prepared.privilege emulation in
  ignore (Session.exec_many session issue.fix_commands);
  { prepared; emulation; session; changes = Emulation.changes emulation }

let ticket ~label (p : Workflow.prepared) =
  {
    Heimdall_lint.Plan_lint.label;
    spec = p.privilege;
    scope = p.slice;
    commands = p.issue.fix_commands;
  }

type verdict = {
  label : string;
  findings : Heimdall_lint.Diagnostic.t list;
  requirements : Plan_sem.requirement list;
  delta_contained : bool;
  sufficient : bool;
  denied : int;
  rejected : int;
}

let check ?engine ?policies ~label r =
  let p = r.prepared in
  let findings =
    Heimdall_lint.Lint.check_plans ?engine ?policies ~network:p.broken
      [ ticket ~label p ]
  in
  let script = Plan_sem.script_of_commands p.issue.fix_commands in
  let analysis = Plan_sem.analyze ~network:p.broken script.script_changes in
  let requirements = Plan_sem.plan_requirements ~network:p.broken script in
  let proof = Plan_sem.prove ~spec:p.privilege requirements in
  (* The exact delta: every packet whose fate some (device, ACL) edit
     changed. *)
  let exact =
    List.fold_left
      (fun acc (_, _, (d : Acl_sem.diff)) ->
        Packet_set.union acc (Packet_set.union d.newly_permitted d.newly_denied))
      Packet_set.empty
      (Acl_sem.network_diffs ~before:(Emulation.baseline r.emulation)
         ~after:(Emulation.network r.emulation))
  in
  {
    label;
    findings;
    requirements;
    delta_contained = Packet_set.subset exact analysis.delta;
    sufficient = proof.sufficient;
    denied = Session.denied_count r.session;
    rejected =
      List.length
        (Heimdall_enforcer.Verifier.privilege_rejections ~privilege:p.privilege
           r.changes);
  }

let sufficiency_agrees v = (not v.sufficient) || (v.denied = 0 && v.rejected = 0)
let sound v = v.delta_contained && sufficiency_agrees v

let failures v =
  (if v.delta_contained then []
   else
     [
       Printf.sprintf "%s: predicted delta does NOT contain the exact post-apply ACL diff"
         v.label;
     ])
  @
  if sufficiency_agrees v then []
  else
    [
      Printf.sprintf
        "%s: statically sufficient, but replay denied %d command(s) and rejected %d \
         change(s)"
        v.label v.denied v.rejected;
    ]
