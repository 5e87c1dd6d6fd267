open Heimdall_net
open Heimdall_json

type atom = { protos : Flow.proto list; dp_lo : int; dp_hi : int }
type service = atom list
type endpoint = Any | Seg of string | Nets of Prefix.t list
type action = Allow | Deny | Deny_final | Require of string
type service_ref = Named of string | Inline of service

type rule = {
  action : action;
  service : service_ref;
  src : endpoint;
  dst : endpoint option;
}

type node = {
  name : string;
  scope : Prefix.t list;
  owners : string list;
  rules : rule list;
  children : node list;
}

type t = { services : (string * service) list; root : node }

let all_protos = [ Flow.Icmp; Flow.Tcp; Flow.Udp ]

let make_root ?(rules = []) children =
  { name = "root"; scope = [ Prefix.any ]; owners = []; rules; children }

let node ?(owners = []) ?(rules = []) ?(children = []) ~scope name =
  { name; scope; owners; rules; children }

let rule ?(src = Any) ?dst action service = { action; service; src; dst }

let rec fold_nodes f acc n = List.fold_left (fold_nodes f) (f acc n) n.children

let find_node t name =
  fold_nodes (fun acc n -> if acc = None && n.name = name then Some n else acc) None t.root

let node_count t = fold_nodes (fun acc _ -> acc + 1) 0 t.root
let rule_count t = fold_nodes (fun acc n -> acc + List.length n.rules) 0 t.root

(* ---------------- validation ---------------- *)

let keywords =
  [ "any"; "node"; "scope"; "owner"; "allow"; "deny"; "deny!"; "require";
    "service"; "from"; "to"; "default" ]

let valid_name s =
  s <> ""
  && (not (List.mem s keywords))
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       s

let validate t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let check_atom where (a : atom) =
    if a.protos = [] then err "%s: service atom with no protocol" where
    else if a.dp_lo < 0 || a.dp_hi > Packet_set.max_port || a.dp_lo > a.dp_hi then
      err "%s: port interval %d-%d out of bounds" where a.dp_lo a.dp_hi
    else Ok ()
  in
  let rec first_error = function
    | [] -> Ok ()
    | Ok () :: rest -> first_error rest
    | (Error _ as e) :: _ -> e
  in
  let names = fold_nodes (fun acc n -> n.name :: acc) [] t.root in
  let dup =
    let sorted = List.sort String.compare names in
    let rec find = function
      | a :: (b :: _ as rest) -> if a = b then Some a else find rest
      | _ -> None
    in
    find sorted
  in
  match dup with
  | Some n -> err "duplicate node name %S" n
  | None -> (
      let bad_name = List.find_opt (fun n -> not (valid_name n || n = "root")) names in
      match bad_name with
      | Some n -> err "invalid node name %S" n
      | None ->
          let svc_errs =
            List.map
              (fun (name, svc) ->
                if not (valid_name name) then err "invalid service name %S" name
                else if svc = [] then err "service %s: empty" name
                else first_error (List.map (check_atom ("service " ^ name)) svc))
              t.services
          in
          let check_ep where = function
            | Any -> Ok ()
            | Seg s ->
                if find_node t s <> None then Ok ()
                else err "%s: unknown segment %S" where s
            | Nets [] -> err "%s: empty prefix list" where
            | Nets _ -> Ok ()
          in
          let check_rule where (r : rule) =
            let svc =
              match r.service with
              | Named n ->
                  if List.mem_assoc n t.services then Ok ()
                  else err "%s: unknown service %S" where n
              | Inline [] -> err "%s: empty inline service" where
              | Inline atoms -> first_error (List.map (check_atom where) atoms)
            in
            first_error
              [ svc; check_ep where r.src;
                (match r.dst with None -> Ok () | Some e -> check_ep where e) ]
          in
          let node_errs =
            fold_nodes
              (fun acc n ->
                let where = "node " ^ n.name in
                (if n.scope = [] then err "%s: empty scope" where else Ok ())
                :: List.map (check_rule where) n.rules
                @ acc)
              [] t.root
          in
          first_error (svc_errs @ node_errs))

(* ---------------- text rendering ---------------- *)

let proto_key = function Flow.Icmp -> 0 | Flow.Tcp -> 1 | Flow.Udp -> 2

let atom_to_string (a : atom) =
  let protos = List.sort_uniq compare (List.map proto_key a.protos) in
  let proto_str =
    if List.length protos = 3 then "any"
    else
      String.concat "+"
        (List.map
           (fun k -> Flow.proto_to_string (match k with 0 -> Flow.Icmp | 1 -> Flow.Tcp | _ -> Flow.Udp))
           protos)
  in
  if a.dp_lo = 0 && a.dp_hi = Packet_set.max_port then proto_str
  else if a.dp_lo = a.dp_hi then Printf.sprintf "%s %d" proto_str a.dp_lo
  else Printf.sprintf "%s %d-%d" proto_str a.dp_lo a.dp_hi

let service_to_string svc = String.concat ", " (List.map atom_to_string svc)

let endpoint_to_string = function
  | Any -> "any"
  | Seg s -> s
  | Nets l -> String.concat ", " (List.map Prefix.to_string l)

let rule_to_string (r : rule) =
  let action =
    match r.action with
    | Allow -> "allow"
    | Deny -> "deny"
    | Deny_final -> "deny!"
    | Require w -> "require " ^ w
  in
  let svc =
    match r.service with Named n -> n | Inline atoms -> service_to_string atoms
  in
  let src = match r.src with Any -> "" | e -> " from " ^ endpoint_to_string e in
  let dst = match r.dst with None -> "" | Some e -> " to " ^ endpoint_to_string e in
  Printf.sprintf "%s %s%s%s;" action svc src dst

let render t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, svc) ->
      Buffer.add_string buf (Printf.sprintf "service %s = %s;\n" name (service_to_string svc)))
    t.services;
  if t.services <> [] then Buffer.add_char buf '\n';
  let rec emit indent n =
    let pad = String.make indent ' ' in
    Buffer.add_string buf (Printf.sprintf "%snode %s {\n" pad n.name);
    let ipad = String.make (indent + 2) ' ' in
    Buffer.add_string buf
      (Printf.sprintf "%sscope %s;\n" ipad
         (String.concat ", " (List.map Prefix.to_string n.scope)));
    if n.owners <> [] then
      Buffer.add_string buf
        (Printf.sprintf "%sowner %s;\n" ipad (String.concat ", " n.owners));
    List.iter (fun r -> Buffer.add_string buf (ipad ^ rule_to_string r ^ "\n")) n.rules;
    List.iter (emit (indent + 2)) n.children;
    Buffer.add_string buf (pad ^ "}\n")
  in
  List.iter (emit 0) t.root.children;
  List.iter (fun r -> Buffer.add_string buf (rule_to_string r ^ "\n")) t.root.rules;
  Buffer.contents buf

(* ---------------- JSON codec ---------------- *)

let atom_to_json (a : atom) =
  Json.Obj
    [
      ("protos", Json.List (List.map (fun p -> Json.String (Flow.proto_to_string p)) a.protos));
      ("dp_lo", Json.Int a.dp_lo);
      ("dp_hi", Json.Int a.dp_hi);
    ]

let endpoint_to_json = function
  | Any -> Json.String "any"
  | Seg s -> Json.Obj [ ("seg", Json.String s) ]
  | Nets l -> Json.Obj [ ("nets", Json.List (List.map (fun p -> Json.String (Prefix.to_string p)) l)) ]

let rule_to_json (r : rule) =
  let action_fields =
    match r.action with
    | Allow -> [ ("action", Json.String "allow") ]
    | Deny -> [ ("action", Json.String "deny") ]
    | Deny_final -> [ ("action", Json.String "deny!") ]
    | Require w -> [ ("action", Json.String "require"); ("waypoint", Json.String w) ]
  in
  let service =
    match r.service with
    | Named n -> Json.String n
    | Inline atoms -> Json.List (List.map atom_to_json atoms)
  in
  Json.Obj
    (action_fields
    @ [
        ("service", service);
        ("from", endpoint_to_json r.src);
        ("to", match r.dst with None -> Json.Null | Some e -> endpoint_to_json e);
      ])

let rec node_to_json (n : node) =
  Json.Obj
    [
      ("name", Json.String n.name);
      ("scope", Json.List (List.map (fun p -> Json.String (Prefix.to_string p)) n.scope));
      ("owners", Json.List (List.map (fun o -> Json.String o) n.owners));
      ("rules", Json.List (List.map rule_to_json n.rules));
      ("children", Json.List (List.map node_to_json n.children));
    ]

let to_json t =
  Json.Obj
    [
      ( "services",
        Json.List
          (List.map
             (fun (name, svc) ->
               Json.Obj
                 [ ("name", Json.String name); ("atoms", Json.List (List.map atom_to_json svc)) ])
             t.services) );
      ("root", node_to_json t.root);
    ]

exception Decode of string

let fail fmt = Printf.ksprintf (fun m -> raise (Decode m)) fmt

let need what = function Some v -> v | None -> fail "missing or ill-typed %s" what

let atom_of_json j =
  let protos =
    need "atom protos" (Option.bind (Json.member "protos" j) Json.to_list_opt)
    |> List.map (fun p ->
           let s = need "proto" (Json.to_string_opt p) in
           match Flow.proto_of_string s with
           | Some p -> p
           | None -> fail "unknown protocol %S" s)
  in
  let int_field f = need f (Option.bind (Json.member f j) Json.to_int_opt) in
  { protos; dp_lo = int_field "dp_lo"; dp_hi = int_field "dp_hi" }

let prefix_of_json j =
  let s = need "prefix" (Json.to_string_opt j) in
  match Prefix.of_string_opt s with Some p -> p | None -> fail "bad prefix %S" s

let endpoint_of_json j =
  match j with
  | Json.String "any" -> Any
  | _ -> (
      match Json.member "seg" j with
      | Some s -> Seg (need "seg" (Json.to_string_opt s))
      | None -> (
          match Option.bind (Json.member "nets" j) Json.to_list_opt with
          | Some l -> Nets (List.map prefix_of_json l)
          | None -> fail "bad endpoint"))

let rule_of_json j =
  let action =
    match need "action" (Option.bind (Json.member "action" j) Json.to_string_opt) with
    | "allow" -> Allow
    | "deny" -> Deny
    | "deny!" -> Deny_final
    | "require" ->
        Require (need "waypoint" (Option.bind (Json.member "waypoint" j) Json.to_string_opt))
    | a -> fail "unknown action %S" a
  in
  let service =
    match need "service" (Json.member "service" j) with
    | Json.String n -> Named n
    | Json.List atoms -> Inline (List.map atom_of_json atoms)
    | _ -> fail "bad service"
  in
  let src = endpoint_of_json (need "from" (Json.member "from" j)) in
  let dst =
    match Json.member "to" j with
    | None | Some Json.Null -> None
    | Some e -> Some (endpoint_of_json e)
  in
  { action; service; src; dst }

let rec node_of_json j =
  let name = need "node name" (Option.bind (Json.member "name" j) Json.to_string_opt) in
  let scope =
    need "scope" (Option.bind (Json.member "scope" j) Json.to_list_opt)
    |> List.map prefix_of_json
  in
  let owners =
    match Option.bind (Json.member "owners" j) Json.to_list_opt with
    | None -> []
    | Some l -> List.map (fun o -> need "owner" (Json.to_string_opt o)) l
  in
  let rules =
    match Option.bind (Json.member "rules" j) Json.to_list_opt with
    | None -> []
    | Some l -> List.map rule_of_json l
  in
  let children =
    match Option.bind (Json.member "children" j) Json.to_list_opt with
    | None -> []
    | Some l -> List.map node_of_json l
  in
  { name; scope; owners; rules; children }

let of_json j =
  match
    let services =
      match Option.bind (Json.member "services" j) Json.to_list_opt with
      | None -> []
      | Some l ->
          List.map
            (fun s ->
              let name = need "service name" (Option.bind (Json.member "name" s) Json.to_string_opt) in
              let atoms =
                need "service atoms" (Option.bind (Json.member "atoms" s) Json.to_list_opt)
                |> List.map atom_of_json
              in
              (name, atoms))
            l
    in
    let root = node_of_json (need "root" (Json.member "root" j)) in
    { services; root }
  with
  | t -> ( match validate t with Ok () -> Ok t | Error e -> Error e)
  | exception Decode m -> Error m

let equal (a : t) (b : t) = a = b
