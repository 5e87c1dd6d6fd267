(** Load a network from text (or a directory) — the adoption path for
    users with their own topologies and configs.

    Topology format (line-oriented, [#] comments):
    {v
    node r1 router
    node sw1 switch
    node h1 host
    node fw1 firewall
    link r1:eth0 sw1:eth0
    link sw1:eth1 h1:eth0
    v}

    Device configurations use the language of
    {!Heimdall_config.Parser}. *)

type error = { where : string; line : int; message : string }

val error_to_string : error -> string

val load :
  topology:string -> configs:(string * string) list -> (Network.t, error) result
(** [load ~topology ~configs] parses everything and assembles a network;
    [configs] pairs each node name with its config text.  Fails on the
    first syntax error, missing/extra config, or structural
    inconsistency. *)

val load_dir : string -> (Network.t, error) result
(** [load_dir dir] reads [dir ^ "/topology.txt"] and one
    [dir ^ "/configs/<node>.cfg"] per node. *)

val save_dir : string -> Network.t -> unit
(** Write a network back out in the {!load_dir} layout (creates the
    directories).  [load_dir (save_dir d net)] round-trips. *)
