(** Unified metrics layer: a domain-safe, allocation-disciplined registry
    of monotonic counters, gauges and log-linear latency histograms, with
    a Prometheus-style text exposition format. The same histogram, made
    outside a registry, backs every run report's latency quantiles.

    Every subsystem (consensus, transport, verify pool, store) registers
    its instruments against a {!Registry.t} at construction time and
    keeps the returned handles; the hot paths then touch only those
    handles. The discipline:

    - a {!Counter.incr} / {!Gauge.set} is one [Atomic] operation — a few
      nanoseconds, zero minor words (the micro bench gates this);
    - a {!Histogram.record} updates a {e per-domain} shard reached
      through [Domain.DLS], so worker domains (the verify pool) record
      without contending with the event loop; shards are merged only at
      scrape or {!Histogram.snapshot} time;
    - scraping ({!Registry.expose}) is read-only and idempotent —
      instruments are cumulative, the scraper never resets them.

    The registry itself is mutex-protected and may be shared across
    domains; instrument registration is construction-time work and never
    sits on a hot path. *)

module Counter : sig
  type t

  val incr : t -> unit
  (** One atomic increment: the hot-path operation. *)

  val add : t -> int -> unit
  val value : t -> int

  val mirror : t -> int -> unit
  (** [mirror c v] sets the counter to [v] — for scrape-time collect
      hooks ({!Registry.on_collect}) that mirror a subsystem's existing
      monotonic counter instead of double-counting on the hot path.
      Never use it on an instrument that is also [incr]'d. *)
end

module Gauge : sig
  type t

  val set : t -> int -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Histogram : sig
  type t

  val create : unit -> t
  (** A histogram outside any registry (a run's own report, say); the
      registry's are made by {!Registry.histogram}. *)

  val record : t -> int -> unit
  (** [record h v] adds one observation (a nanosecond latency, a queue
      length…) to the calling domain's shard: a few int operations, no
      allocation. Negative values clamp to zero. A value below 32 is
      kept exactly; a larger one lands in one of 32 linear sub-buckets
      of its power of two, at most 1/32 of the value wide. Each shard
      also keeps the exact count, sum, min and max. *)

  val count : t -> int
  (** Observations across all shards. *)

  val sum : t -> int

  val buckets : t -> int array
  (** Merged per-bucket (non-cumulative) counts, index = floor(log2 v):
      the sub-buckets folded back into powers of two. Bucket [b] holds
      values in [\[2^b, 2^{b+1})]; 0 and 1 share bucket 0. *)

  type snapshot
  (** All shards merged at one instant: plain ints and an int array,
      immutable and safe to [Marshal] or compare with [=]. *)

  val snapshot : t -> snapshot
  (** Merges the shards. A domain recording meanwhile may be a few
      observations ahead of what the snapshot holds. *)

  (** Statistics of a snapshot, in the unit that was recorded. *)
  module Snapshot : sig
    type t = snapshot

    val count : t -> int
    val sum : t -> int

    val mean : t -> float
    (** [nan] when empty; so are {!min}, {!max} and {!quantile}. *)

    val min : t -> float
    val max : t -> float

    val quantile : t -> float -> float
    (** [quantile s q] for [q] in [\[0, 1\]]: the nearest-rank quantile
        (the ceil(q n)-th smallest value, the smallest for q = 0),
        estimated by the midpoint of its sub-bucket and clamped to
        [\[min, max\]] — within 1/64 (1.6%) of the exact value. Raises
        [Invalid_argument] for [q] outside [\[0, 1\]]. *)

    val pp_summary : unit:float * string -> Format.formatter -> t -> unit
    (** ["n=… mean=… p50=… p99=… max=…"], each value divided by the
        [unit]'s scale and followed by its suffix: [~unit:(1e9, "s")]
        prints nanoseconds as seconds. *)
  end
end

module Registry : sig
  type t

  val create : unit -> t

  (** Instrument constructors are idempotent: asking twice for the same
      name and label set returns the same instrument (so a recovered
      replica re-attaches to its counters instead of shadowing them).
      Asking for an existing name+labels under a different metric kind
      raises [Invalid_argument]. Labels are sorted internally; [help] is
      kept from the first registration. *)

  val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> Counter.t
  val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> Gauge.t

  val histogram :
    t -> ?help:string -> ?labels:(string * string) list -> string -> Histogram.t

  val on_collect : t -> (unit -> unit) -> unit
  (** Registers a hook run at the start of every {!expose}: the place to
      refresh gauges (queue depths, live connections) or {!Counter.mirror}
      a subsystem's pre-existing counters. Hooks run in registration
      order and must not register new instruments. *)

  val expose : t -> string
  (** The full registry in Prometheus text exposition format:
      [# TYPE name kind] per family, then one
      [name{label="v",...} value] line per instrument, families and
      label sets in sorted order — deterministic, so two scrapes of an
      idle registry are byte-identical. Histograms render cumulative
      [_bucket{le="..."}] lines (one per power-of-two bucket up to the
      highest occupied, then [le="+Inf"]), plus [_sum] and [_count]; the
      sub-buckets are folded into their power of two here, so only
      {!Histogram.Snapshot.quantile} sees the finer resolution. *)

  val dump_file : t -> string -> unit
  (** Writes {!expose} to a file atomically (temp file + rename), so a
      reader never observes a half-written dump. *)
end
