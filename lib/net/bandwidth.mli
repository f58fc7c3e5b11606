(** Per-node bandwidth accounting, broken down by message category.

    The paper's Table 4 and Figures 2/10/11/12 are bandwidth measurements;
    every byte entering or leaving a simulated NIC is recorded here under
    the category of its message (e.g. ["datablock"], ["proposal"],
    ["vote"], ["client-req"]). *)

type t

type direction = Sent | Received

val create : unit -> t

val record : t -> direction -> category:string -> int -> unit
(** Adds [bytes] under the category. *)

val total : t -> direction -> int
(** Total bytes in a direction. *)

val by_category : t -> direction -> (string * int) list
(** Per-category bytes, sorted by category name. *)

val category_total : t -> direction -> string -> int

val reset : t -> unit
(** Zeroes all counters (used at the end of the warmup window). *)

