(** Render configurations to their canonical textual form.

    [Parser.parse (Printer.render c)] round-trips to a config equal to
    [Ast.normalize c]; tests enforce this. *)

val render : Ast.t -> string
(** Full canonical rendering, ending in a newline. *)

val render_acl : Heimdall_net.Acl.t -> string
(** Just one access-list (one line per rule). *)

val line_count : Ast.t -> int
(** Number of non-empty lines in the canonical rendering — the "lines of
    configs" measure reported in the paper's Table 1. *)
