(** Abstract syntax of device configurations.

    The configuration language is a Cisco-IOS-flavoured, line-oriented
    format covering what the paper's experiments need: interface addressing,
    OSPF, static routes, extended ACLs, VLANs/switchports, per-device
    secrets, and host networking.  See {!Parser} for the concrete syntax. *)

open Heimdall_net

(** Layer-2 role of a switch/host port. *)
type switchport =
  | Access of int  (** Untagged member of one VLAN. *)
  | Trunk of int list  (** Tagged carrier of the listed VLANs. *)

type interface = {
  if_name : string;
  description : string option;
  addr : Ifaddr.t option;  (** L3 address with mask, e.g. 10.0.1.1/24. *)
  ospf_cost : int option;  (** Per-interface OSPF cost; defaults to 10. *)
  ospf_area : int option;  (** Overrides the area from [router ospf]. *)
  acl_in : string option;  (** Name of the inbound ACL, if bound. *)
  acl_out : string option;  (** Name of the outbound ACL, if bound. *)
  switchport : switchport option;
  enabled : bool;  (** [false] when [shutdown] is configured. *)
}

val interface : ?description:string -> ?addr:Ifaddr.t -> ?ospf_cost:int ->
  ?ospf_area:int -> ?acl_in:string -> ?acl_out:string ->
  ?switchport:switchport -> ?enabled:bool -> string -> interface
(** Interface with sensible defaults (enabled, nothing bound). *)

type static_route = {
  sr_prefix : Prefix.t;
  sr_next_hop : Ipv4.t;
  sr_distance : int;  (** Administrative distance; default 1. *)
}

type ospf = {
  router_id : Ipv4.t option;
  networks : (Prefix.t * int) list;  (** [network P area A] statements. *)
  default_originate : bool;
}

type bgp_neighbor = { peer : Ipv4.t; remote_as : int }

type bgp = {
  local_as : int;
  bgp_neighbors : bgp_neighbor list;
  advertised : Prefix.t list;
}

(** Secrets a production config carries and a twin must never expose. *)
type secret =
  | Enable_secret of string
  | Snmp_community of string
  | Ipsec_key of string * Ipv4.t  (** Pre-shared key and peer. *)
  | User_password of string * string  (** Username, password. *)

val secret_value : secret -> string
(** The sensitive string inside a secret. *)

val secret_kind : secret -> string
(** A stable label for the secret's kind ("enable-secret", ...). *)

type t = {
  hostname : string;
  interfaces : interface list;  (** Sorted by [if_name]. *)
  vlans : (int * string) list;  (** VLAN id, name; sorted by id. *)
  acls : Acl.t list;  (** Sorted by ACL name. *)
  static_routes : static_route list;
  ospf : ospf option;
  bgp : bgp option;
  default_gateway : Ipv4.t option;  (** For hosts and L2 switches. *)
  secrets : secret list;
}

val make : ?interfaces:interface list -> ?vlans:(int * string) list ->
  ?acls:Acl.t list -> ?static_routes:static_route list -> ?ospf:ospf ->
  ?bgp:bgp -> ?default_gateway:Ipv4.t -> ?secrets:secret list -> string -> t
(** [make hostname] builds a config, normalising component order. *)

val normalize : t -> t
(** Re-sort the list-valued fields (interfaces, VLANs, ACLs, static
    routes, OSPF network statements, secrets) into canonical order, and
    collapse an OSPF process with no networks, no router id and no
    default-originate back to [None] (the inverse of the empty process
    {!Change.apply} creates on demand). *)

val equal : t -> t -> bool
(** Structural equality on normalised configs. *)

(** {2 Component lookup and update} *)

val find_interface : string -> t -> interface option
val update_interface : interface -> t -> t
(** Insert or replace (by [if_name]). *)

val find_acl : string -> t -> Acl.t option
val update_acl : Acl.t -> t -> t
val remove_acl : string -> t -> t

val interface_addr : t -> string -> Ifaddr.t option
(** Address of a named interface, if configured. *)

val addresses : t -> (string * Ifaddr.t) list
(** All [interface, address] pairs, sorted by interface. *)

val has_secret_value : string -> t -> bool
(** Whether the given string equals any secret carried by the config —
    used by tests to assert non-leakage. *)
