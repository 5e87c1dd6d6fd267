type proto = Icmp | Tcp | Udp

let proto_to_string = function Icmp -> "icmp" | Tcp -> "tcp" | Udp -> "udp"

let proto_of_string = function
  | "icmp" -> Some Icmp
  | "tcp" -> Some Tcp
  | "udp" -> Some Udp
  | _ -> None

type t = { src : Ipv4.t; dst : Ipv4.t; proto : proto; src_port : int; dst_port : int }

let make ?(proto = Icmp) ?src_port ?dst_port src dst =
  let default_src, default_dst =
    match proto with Icmp -> (0, 0) | Tcp | Udp -> (40000, 80)
  in
  {
    src;
    dst;
    proto;
    src_port = Option.value src_port ~default:default_src;
    dst_port = Option.value dst_port ~default:default_dst;
  }

let icmp src dst = make ~proto:Icmp src dst
let tcp ?(src_port = 40000) ~dst_port src dst = make ~proto:Tcp ~src_port ~dst_port src dst

let reverse f =
  { f with src = f.dst; dst = f.src; src_port = f.dst_port; dst_port = f.src_port }

let to_string f =
  match f.proto with
  | Icmp -> Printf.sprintf "icmp %s -> %s" (Ipv4.to_string f.src) (Ipv4.to_string f.dst)
  | Tcp | Udp ->
      Printf.sprintf "%s %s:%d -> %s:%d" (proto_to_string f.proto)
        (Ipv4.to_string f.src) f.src_port (Ipv4.to_string f.dst) f.dst_port

let pp fmt f = Format.pp_print_string fmt (to_string f)
let compare = Stdlib.compare
let equal a b = compare a b = 0
