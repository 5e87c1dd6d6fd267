open Heimdall_config
open Heimdall_control
open Heimdall_privilege

(* Glob-language inclusion for the DSL's three pattern shapes: "*",
   prefix-glob "stem*", and exact strings. *)
let pattern_subsumes (outer : Privilege.pattern) (inner : Privilege.pattern) =
  let glob_stem p =
    let n = String.length p in
    if n > 0 && p.[n - 1] = '*' then Some (String.sub p 0 (n - 1)) else None
  in
  if outer = "*" then true
  else
    match (glob_stem outer, glob_stem inner) with
    | Some o, Some i ->
        String.length i >= String.length o && String.sub i 0 (String.length o) = o
    | Some _, None -> Privilege.pattern_matches outer inner
    | None, Some _ -> false
    | None, None -> outer = inner

let resource_subsumes (outer : Privilege.resource) (inner : Privilege.resource) =
  pattern_subsumes outer.node inner.node
  &&
  match outer.iface with
  | None -> true
  | Some oi -> (
      match inner.iface with None -> false | Some ii -> pattern_subsumes oi ii)

(* Every (action, resource) pair [inner] matches is also matched by
   [outer]. *)
let predicate_subsumes (outer : Privilege.predicate) (inner : Privilege.predicate) =
  List.for_all
    (fun pi -> List.exists (fun po -> pattern_subsumes po pi) outer.actions)
    inner.actions
  && List.for_all
       (fun ri -> List.exists (fun ro -> resource_subsumes ro ri) outer.resources)
       inner.resources

(* PRV001: first-match-wins makes a subsumed later statement dead. *)
let unreachable_statements (t : Privilege.t) =
  let indexed = List.mapi (fun i p -> (i + 1, p)) t.predicates in
  List.concat_map
    (fun (i, (p : Privilege.predicate)) ->
      match
        List.find_opt
          (fun (j, earlier) -> j < i && predicate_subsumes earlier p)
          indexed
      with
      | None -> []
      | Some (j, earlier) ->
          let severity, gloss =
            if earlier.Privilege.effect <> p.effect then
              (Diagnostic.Error, " with the opposite effect — the intent is never enforced")
            else (Diagnostic.Warning, "")
          in
          [
            Diagnostic.v ~obj:"privilege" ~line:i ~code:"PRV001" severity
              (Printf.sprintf
                 "statement %d (%s) is unreachable: statement %d (%s) decides first%s" i
                 (Privilege.predicate_to_string p)
                 j
                 (Privilege.predicate_to_string earlier)
                 gloss);
          ])
    indexed

(* PRV002: a resource pattern should name something real. *)
let unknown_resources net (t : Privilege.t) =
  let nodes = Network.node_names net in
  let ifaces_of n =
    match Network.config n net with
    | None -> []
    | Some (cfg : Ast.t) -> List.map (fun (i : Ast.interface) -> i.if_name) cfg.interfaces
  in
  List.concat_map
    (fun (i, (p : Privilege.predicate)) ->
      List.filter_map
        (fun (r : Privilege.resource) ->
          let matched = List.filter (Privilege.pattern_matches r.node) nodes in
          if matched = [] then
            Some
              (Diagnostic.v ~obj:"privilege" ~line:i ~code:"PRV002" Diagnostic.Warning
                 (Printf.sprintf
                    "statement %d grants on %s, but no device matches %S in the network" i
                    (Privilege.resource_to_string r)
                    r.node))
          else
            match r.iface with
            | None -> None
            | Some ipat ->
                if
                  List.exists
                    (fun n -> List.exists (Privilege.pattern_matches ipat) (ifaces_of n))
                    matched
                then None
                else
                  Some
                    (Diagnostic.v ~obj:"privilege" ~line:i ~code:"PRV002"
                       Diagnostic.Warning
                       (Printf.sprintf
                          "statement %d grants on %s, but no matching device has an \
                           interface matching %S"
                          i
                          (Privilege.resource_to_string r)
                          ipat)))
        p.resources)
    (List.mapi (fun i p -> (i + 1, p)) t.predicates)

(* PRV003: an allow that covers the whole action catalog on every device
   is the opposite of least privilege. *)
let over_broad (t : Privilege.t) =
  List.concat_map
    (fun (i, (p : Privilege.predicate)) ->
      let covers_catalog =
        List.for_all
          (fun act -> List.exists (fun pat -> Privilege.pattern_matches pat act) p.actions)
          Action.catalog
      in
      let every_device =
        List.exists
          (fun (r : Privilege.resource) -> pattern_subsumes r.node "*" && r.iface = None)
          p.resources
      in
      if p.effect = Privilege.Allow && covers_catalog && every_device then
        [
          Diagnostic.v ~obj:"privilege" ~line:i ~code:"PRV003" Diagnostic.Warning
            (Printf.sprintf
               "statement %d (%s) allows every catalog action on every device — not a \
                least-privilege grant"
               i
               (Privilege.predicate_to_string p));
        ]
      else [])
    (List.mapi (fun i p -> (i + 1, p)) t.predicates)

let check ?network t =
  let net_findings =
    match network with None -> [] | Some net -> unknown_resources net t
  in
  List.sort Diagnostic.compare (unreachable_statements t @ net_findings @ over_broad t)

(* PRV004: the grant is broader than what the ticket's changes actually
   exercised — the semantic over-grant analysis (Priv_sem) rendered as
   lint findings. *)
let check_usage ?label ~network ~spec ~changes () =
  List.map
    (fun (o : Heimdall_sem.Priv_sem.over_grant) ->
      Diagnostic.v ?device:label ~obj:"privilege" ~line:(o.index + 1) ~code:"PRV004"
        Diagnostic.Warning
        (Printf.sprintf "over-grant: %s" (Heimdall_sem.Priv_sem.over_grant_to_string o)))
    (Heimdall_sem.Priv_sem.over_grants ~network ~spec ~changes)
  |> List.sort Diagnostic.compare
