/* SHA-256 (FIPS 180-4) compression for Crypto.Sha256.

   Two compressors share one interface: the x86 SHA extensions (SHA-NI),
   used when cpuid leaf 7 reports them, and portable C everywhere else.
   The choice is made once, by [leopard_sha256_select] at module
   initialisation, before any other domain exists; until then the
   portable path is in force, so every call is correct whatever the
   order. The one-shot entry points (digest, Merkle pair, HMAC) run
   wholly here, so a digest costs one crossing from OCaml, not one per
   block. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LEOPARD_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

static const uint32_t K256[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
  0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
  0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
  0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
  0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
  0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

static const uint32_t IV[8] = {
  0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
  0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19
};

typedef void (*compress_fn)(uint32_t st[8], const uint8_t *p, size_t nblocks);

/* ---- portable ---------------------------------------------------------- */

#define ROR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static inline uint32_t load_be32(const uint8_t *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) | ((uint32_t)p[2] << 8) | p[3];
}

static inline void store_be32(uint8_t *p, uint32_t v)
{
  p[0] = (uint8_t)(v >> 24);
  p[1] = (uint8_t)(v >> 16);
  p[2] = (uint8_t)(v >> 8);
  p[3] = (uint8_t)v;
}

static void compress_portable(uint32_t st[8], const uint8_t *p, size_t nblocks)
{
  uint32_t w[64];
  for (; nblocks > 0; nblocks--, p += 64) {
    for (int i = 0; i < 16; i++) w[i] = load_be32(p + 4 * i);
    for (int i = 16; i < 64; i++) {
      uint32_t s0 = ROR(w[i - 15], 7) ^ ROR(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = ROR(w[i - 2], 17) ^ ROR(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
    uint32_t e = st[4], f = st[5], g = st[6], h = st[7];
    for (int i = 0; i < 64; i++) {
      uint32_t t1 = h + (ROR(e, 6) ^ ROR(e, 11) ^ ROR(e, 25)) + (g ^ (e & (f ^ g))) + K256[i] + w[i];
      uint32_t t2 = (ROR(a, 2) ^ ROR(a, 13) ^ ROR(a, 22)) + ((a & (b ^ c)) ^ (b & c));
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    st[0] += a; st[1] += b; st[2] += c; st[3] += d;
    st[4] += e; st[5] += f; st[6] += g; st[7] += h;
  }
}

/* ---- SHA-NI ------------------------------------------------------------ */

#ifdef LEOPARD_SHA_NI

/* Four rounds 4i..4i+3 over message quad [m] (already byte-swapped),
   with the schedule for later quads folded in: [next] gets its msg2
   step (quads 3..14), [later] its msg1 step (quads 1..12). */
#define QUAD(i, m, prev, next, later)                                      \
  do {                                                                     \
    __m128i k_ = _mm_loadu_si128((const __m128i *)&K256[4 * (i)]);         \
    __m128i msg_ = _mm_add_epi32(m, k_);                                   \
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg_);                              \
    if ((i) >= 3 && (i) <= 14) {                                           \
      next = _mm_add_epi32(next, _mm_alignr_epi8(m, prev, 4));             \
      next = _mm_sha256msg2_epu32(next, m);                                \
    }                                                                      \
    msg_ = _mm_shuffle_epi32(msg_, 0x0E);                                  \
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg_);                              \
    if ((i) >= 1 && (i) <= 12) later = _mm_sha256msg1_epu32(later, m);    \
  } while (0)

__attribute__((target("sha,sse4.1,ssse3")))
static void compress_sha_ni(uint32_t st[8], const uint8_t *p, size_t nblocks)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  /* state words a..h to the ABEF / CDGH lane order the instructions use */
  __m128i t = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[0]), 0xB1);
  __m128i s1 = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[4]), 0x1B);
  __m128i s0 = _mm_alignr_epi8(t, s1, 8);
  s1 = _mm_blend_epi16(s1, t, 0xF0);
  for (; nblocks > 0; nblocks--, p += 64) {
    __m128i abef = s0, cdgh = s1;
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 0)), bswap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    QUAD(0, m0, m3, m1, m3);
    QUAD(1, m1, m0, m2, m0);
    QUAD(2, m2, m1, m3, m1);
    QUAD(3, m3, m2, m0, m2);
    QUAD(4, m0, m3, m1, m3);
    QUAD(5, m1, m0, m2, m0);
    QUAD(6, m2, m1, m3, m1);
    QUAD(7, m3, m2, m0, m2);
    QUAD(8, m0, m3, m1, m3);
    QUAD(9, m1, m0, m2, m0);
    QUAD(10, m2, m1, m3, m1);
    QUAD(11, m3, m2, m0, m2);
    QUAD(12, m0, m3, m1, m3);
    QUAD(13, m1, m0, m2, m0);
    QUAD(14, m2, m1, m3, m1);
    QUAD(15, m3, m2, m0, m2);
    s0 = _mm_add_epi32(s0, abef);
    s1 = _mm_add_epi32(s1, cdgh);
  }
  t = _mm_shuffle_epi32(s0, 0x1B);
  s1 = _mm_shuffle_epi32(s1, 0xB1);
  _mm_storeu_si128((__m128i *)&st[0], _mm_blend_epi16(t, s1, 0xF0));
  _mm_storeu_si128((__m128i *)&st[4], _mm_alignr_epi8(s1, t, 8));
}

static int cpu_has_sha_ni(void)
{
  unsigned int a, b, c, d;
  if (__get_cpuid_max(0, NULL) < 7) return 0;
  __cpuid(1, a, b, c, d);
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return 0; /* SSSE3, SSE4.1 */
  __cpuid_count(7, 0, a, b, c, d);
  return (b & (1u << 29)) != 0; /* SHA */
}

#else

static int cpu_has_sha_ni(void) { return 0; }

#endif

static compress_fn compress = compress_portable;

/* ---- one-shot digests -------------------------------------------------- */

/* SHA-256 of [len] bytes at [p] continuing from [st], which has already
   absorbed [prefix] bytes (a multiple of 64); the digest goes to [out]. */
static void finish(compress_fn f, uint32_t st[8], uint64_t prefix, const uint8_t *p, size_t len,
                   uint8_t out[32])
{
  size_t whole = len & ~(size_t)63;
  if (whole) f(st, p, whole >> 6);
  size_t rem = len - whole;
  uint8_t pad[128];
  memset(pad, 0, sizeof pad);
  memcpy(pad, p + whole, rem);
  pad[rem] = 0x80;
  size_t padlen = rem >= 56 ? 128 : 64;
  uint64_t bits = (prefix + len) * 8;
  for (int i = 0; i < 8; i++) pad[padlen - 1 - i] = (uint8_t)(bits >> (8 * i));
  f(st, pad, padlen >> 6);
  for (int i = 0; i < 8; i++) store_be32(out + 4 * i, st[i]);
}

static void digest(compress_fn f, const uint8_t *p, size_t len, uint8_t out[32])
{
  uint32_t st[8];
  memcpy(st, IV, sizeof st);
  finish(f, st, 0, p, len, out);
}

/* The Merkle inner node: exactly 64 bytes, so one data block and one
   constant padding block. */
static void digest_pair(compress_fn f, const uint8_t *src, uint8_t *dst)
{
  static const uint8_t pad[64] = { 0x80, [62] = 0x02, [63] = 0x00 }; /* bit length 512 */
  uint32_t st[8];
  memcpy(st, IV, sizeof st);
  f(st, src, 1);
  f(st, pad, 1);
  for (int i = 0; i < 8; i++) store_be32(dst + 4 * i, st[i]);
}

static value string_of_digest(const uint8_t d[32])
{
  value s = caml_alloc_string(32);
  memcpy(Bytes_val(s), d, 32);
  return s;
}

static compress_fn backend_fn(value v_backend)
{
  if (Int_val(v_backend) == 0) return compress_portable;
#ifdef LEOPARD_SHA_NI
  if (cpu_has_sha_ni()) return compress_sha_ni;
#endif
  caml_invalid_argument("Sha256.For_testing: SHA-NI unavailable on this CPU");
}

/* ---- OCaml entry points ------------------------------------------------ */

value leopard_sha256_select(value unit)
{
  (void)unit;
#ifdef LEOPARD_SHA_NI
  if (cpu_has_sha_ni()) {
    compress = compress_sha_ni;
    return Val_true;
  }
#endif
  return Val_false;
}

value leopard_sha256_has_sha_ni(value unit)
{
  (void)unit;
  return Val_bool(cpu_has_sha_ni());
}

value leopard_sha256_digest(value v_s)
{
  uint8_t d[32];
  digest(compress, (const uint8_t *)String_val(v_s), caml_string_length(v_s), d);
  return string_of_digest(d);
}

value leopard_sha256_pair(value v_src, value v_src_off, value v_dst, value v_dst_off)
{
  digest_pair(compress, Bytes_val(v_src) + Long_val(v_src_off),
              Bytes_val(v_dst) + Long_val(v_dst_off));
  return Val_unit;
}

/* Digest of [len] bytes at [src_off] in [src], written to [dst] at
   [dst_off]; allocates nothing. Bounds are checked by the caller. */
value leopard_sha256_digest_into(value v_src, value v_src_off, value v_len, value v_dst,
                                 value v_dst_off)
{
  digest(compress, Bytes_val(v_src) + Long_val(v_src_off), Long_val(v_len),
         Bytes_val(v_dst) + Long_val(v_dst_off));
  return Val_unit;
}

/* HMAC-SHA256 (RFC 2104) in two halves. The key schedule is the pair of
   states after the ipad and opad blocks (the key is hashed first when
   longer than a block); a tag is those states finished over the message
   and over the inner digest. Both passes run over the padded key block
   without copying the message. */
static void hmac_schedule(const uint8_t *key, size_t klen, uint32_t ist[8], uint32_t ost[8])
{
  uint8_t kd[32], block[64];
  if (klen > 64) {
    digest(compress, key, klen, kd);
    key = kd;
    klen = 32;
  }
  memset(block, 0x36, 64);
  for (size_t i = 0; i < klen; i++) block[i] ^= key[i];
  memcpy(ist, IV, 8 * sizeof(uint32_t));
  compress(ist, block, 1);
  memset(block, 0x5c, 64);
  for (size_t i = 0; i < klen; i++) block[i] ^= key[i];
  memcpy(ost, IV, 8 * sizeof(uint32_t));
  compress(ost, block, 1);
}

static void hmac_tag(const uint32_t ist[8], const uint32_t ost[8], const uint8_t *msg,
                     size_t len, uint8_t tag[32])
{
  uint32_t st[8];
  uint8_t inner[32];
  memcpy(st, ist, sizeof st);
  finish(compress, st, 64, msg, len, inner);
  memcpy(st, ost, sizeof st);
  finish(compress, st, 64, inner, 32, tag);
}

value leopard_sha256_hmac(value v_key, value v_msg)
{
  uint32_t ist[8], ost[8];
  uint8_t tag[32];
  hmac_schedule((const uint8_t *)String_val(v_key), caml_string_length(v_key), ist, ost);
  hmac_tag(ist, ost, (const uint8_t *)String_val(v_msg), caml_string_length(v_msg), tag);
  return string_of_digest(tag);
}

/* The key schedule as a 64-byte string: the two states in host word
   order, opaque to OCaml and never leaving the process. */
value leopard_sha256_hmac_key(value v_key)
{
  uint32_t st[16];
  hmac_schedule((const uint8_t *)String_val(v_key), caml_string_length(v_key), st, st + 8);
  value s = caml_alloc_string(sizeof st);
  memcpy(Bytes_val(s), st, sizeof st);
  return s;
}

/* Whether [v_tag] is the HMAC of [v_msg] under a schedule from
   [leopard_sha256_hmac_key]; allocates nothing. */
value leopard_sha256_hmac_check(value v_sched, value v_msg, value v_tag)
{
  uint32_t st[16];
  uint8_t tag[32];
  if (caml_string_length(v_tag) != 32) return Val_false;
  memcpy(st, String_val(v_sched), sizeof st);
  hmac_tag(st, st + 8, (const uint8_t *)String_val(v_msg), caml_string_length(v_msg), tag);
  return Val_bool(memcmp(tag, String_val(v_tag), 32) == 0);
}

/* Test-only: one backend by name (0 portable, 1 SHA-NI), whatever
   [leopard_sha256_select] chose. */
value leopard_sha256_digest_with(value v_backend, value v_s)
{
  uint8_t d[32];
  digest(backend_fn(v_backend), (const uint8_t *)String_val(v_s), caml_string_length(v_s), d);
  return string_of_digest(d);
}

value leopard_sha256_pair_with(value v_backend, value v_src, value v_src_off, value v_dst,
                               value v_dst_off)
{
  digest_pair(backend_fn(v_backend), Bytes_val(v_src) + Long_val(v_src_off),
              Bytes_val(v_dst) + Long_val(v_dst_off));
  return Val_unit;
}
