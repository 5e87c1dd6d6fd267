(** Configuration changes: the unit of work a technician produces in the
    twin network, the unit of privilege checking, and the unit the policy
    enforcer verifies and schedules into production.

    A change is always scoped to one device ([node]); its payload describes
    a single edit. *)

open Heimdall_net

type op =
  | Set_interface_enabled of { iface : string; enabled : bool }
  | Set_interface_addr of { iface : string; addr : Ifaddr.t option }
  | Set_interface_description of { iface : string; description : string option }
  | Set_ospf_cost of { iface : string; cost : int option }
  | Set_ospf_area of { iface : string; area : int option }
  | Set_switchport of { iface : string; switchport : Ast.switchport option }
  | Set_acl_binding of { iface : string; dir : [ `In | `Out ]; acl : string option }
  | Acl_set_rule of { acl : string; rule : Acl.rule }
      (** Insert, or replace the rule with the same sequence number. *)
  | Acl_remove_rule of { acl : string; seq : int }
      (** Removing the last rule drops the (now empty) list entirely —
          an empty ACL and a missing one are dataplane-equivalent, both
          fail closed when bound. *)
  | Acl_remove of { acl : string }
  | Add_static_route of Ast.static_route
  | Remove_static_route of { prefix : Prefix.t; next_hop : Ipv4.t }
  | Set_default_gateway of Ipv4.t option
  | Ospf_set_network of { prefix : Prefix.t; area : int }
  | Ospf_remove_network of { prefix : Prefix.t }
  | Set_vlan_name of { vlan : int; name : string option }
      (** [None] deletes the VLAN. *)
  | Set_secret of Ast.secret
      (** Adding/overwriting credentials — always privilege-sensitive. *)

type t = { node : string; op : op }

val v : string -> op -> t
(** [v node op] is the change [op] on device [node]. *)

val apply : op -> Ast.t -> (Ast.t, string) result
(** Apply one edit to a config.  Fails with a message when the edit
    references a missing object (e.g. removing a rule from an unknown
    ACL). *)

val apply_all : t list -> (string -> Ast.t option) -> ((string * Ast.t) list, string) result
(** Apply a change list against a config store (lookup by node name),
    returning the updated configs of every touched node.  Changes to the
    same node compose left-to-right. *)

val diff : node:string -> Ast.t -> Ast.t -> t list
(** [diff ~node before after] computes a change list that transforms
    [before] into [after]; [apply]ing the result to [before] yields a
    config equal to [after] (tests enforce this). *)

val op_to_string : op -> string
(** Render just the op, without the node prefix. *)

val to_string : t -> string
(** One-line human-readable rendering, e.g.
    ["router3: acl ACL_X set rule 20 permit ip any any"]. *)

val op_action_name : op -> string
(** The dotted action name this op corresponds to in the privilege
    taxonomy, e.g. [Set_interface_enabled] maps to ["interface.shutdown"]
    or ["interface.up"]. *)

val target_iface : op -> string option
(** The interface the op touches, when it is interface-scoped. *)
