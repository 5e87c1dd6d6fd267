let connect_s = 5.0
let per_command_s = 4.0
let save_s = 3.0
let privilege_review_s = 5.0
let twin_boot_base_s = 8.0
let twin_boot_per_node_s = 0.5
let verify_review_s = 4.0
