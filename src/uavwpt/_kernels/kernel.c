/*
 * Projected Newton ascent for the weighted sum-rate dual, row by row.
 *
 * A C99 port of uavwpt/_kernels/_ref.py's solve_pga, operation for
 * operation; _ref.py documents the algorithm and is the reference the
 * tests compare this file with.  Each row b maximises
 *
 *     sum_k dw[k] * logdet(A_k),  A_k = I + sum_{n<=k} (p[n]/sigma2) h_n h_n^H,
 *
 * over {p >= 0, sum p <= budget[b]}.  h is (B, K, N) complex128 read as
 * float64 (re, im) pairs, dw and p are (B, K), everything C-contiguous.
 * Rows are solved one after another and never mix, so a row's result does
 * not depend on what else is in the batch.  Sums run in index order.
 * numpy's sums along a contiguous axis, such as the N logs of _ref's
 * logdets, add in index order only up to seven terms and pairwise, in eight
 * accumulators, from eight on; those sums and the BLAS and LAPACK calls of
 * _ref (Cholesky, Gram products, the face solve, dot products) may round
 * differently, so results agree with _ref to rounding, not bit for bit.
 *
 * An evaluation gives the value and the gradient and leaves L_k^{-1} h_m for
 * every m <= k in the workspace, K (K + 1) N / 2 complex values (17 kB at
 * K = 16, N = 8).  The Hessian is built from them in newton_step, on the
 * free face only: once per iteration, never at a rejected trial point or at
 * the point a row stops at.  The whole workspace, one malloc per call, is
 * 2 K N^2 + K (K + 1) N + 2 K^2 + 2 K N + 4 N^2 + 10 K doubles (42 kB at
 * K = 16, N = 8).
 *
 * Returns 0, 1 when a Cholesky pivot of some A_k is not positive (or is
 * NaN), or 2 when the workspace cannot be allocated.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_BACKTRACK 60 /* 0.5**60 is far below any meaningful step */
#define RIDGE 1e-12      /* relative to a face's largest curvature */

/* np.maximum: NaN in either argument wins. */
static double np_max(double a, double b) { return (a >= b || a != a) ? a : b; }

typedef struct {
    int64_t K, N;
    double *outer; /* (K, N, N) pairs: h_k h_k^H, lower triangle */
    double *h_t;   /* (N, K) pairs: the row's channels, antenna-major */
    double *acc;   /* (N, N) pairs: A_k, lower triangle */
    double *chol;  /* (N, N) pairs: its Cholesky factor L_k */
    double *z;     /* K planes; plane k is (N, k + 1) pairs: L_k^{-1} h_m for m <= k */
    double *quad;  /* (K,): ||L_k^{-1} h_m||^2 of the current plane */
    double *face;  /* (K, K + 2): the face system and its two right-hand sides */
    double *on_face; /* (K,): 1.0 for the users on the free face, else 0.0 */
    double *g, *hess;  /* the row's current gradient (K) and face Hessian (K, K) */
    double *v, *u, *trial, *step, *cand_g;
} Work;

static double *take(double **cursor, int64_t count)
{
    double *out = *cursor;
    *cursor += count;
    return out;
}

/* Plane k of z starts after the planes of k' < k, which hold (k' + 1) * N pairs each. */
static double *plane(const Work *w, int64_t k) { return w->z + k * (k + 1) * w->N; }

static int work_init(Work *w, int64_t K, int64_t N)
{
    int64_t total = 2 * K * N * N + 2 * K * N + 4 * N * N + N * K * (K + 1) + K * (K + 2)
                    + 8 * K + K * K;
    double *cursor = malloc((size_t)(total > 0 ? total : 1) * sizeof(double));
    if (cursor == NULL) return 0;
    w->K = K;
    w->N = N;
    w->outer = take(&cursor, 2 * K * N * N);
    w->h_t = take(&cursor, 2 * K * N);
    w->acc = take(&cursor, 2 * N * N);
    w->chol = take(&cursor, 2 * N * N);
    w->z = take(&cursor, N * K * (K + 1));
    w->quad = take(&cursor, K);
    w->face = take(&cursor, K * (K + 2));
    w->on_face = take(&cursor, K);
    w->v = take(&cursor, K);
    w->u = take(&cursor, K);
    w->trial = take(&cursor, K);
    w->step = take(&cursor, K);
    w->g = take(&cursor, K);
    w->hess = take(&cursor, K * K);
    w->cand_g = take(&cursor, K);
    return 1;
}

/* The outer products h_k h_k^H of one row (as _ref.factors forms them), lower
 * triangle, and the row's channels transposed to antenna-major order. */
static void invariants(Work *w, const double *h)
{
    int64_t K = w->K, N = w->N;
    for (int64_t k = 0; k < K; k++) {
        const double *hk = h + 2 * k * N;
        double *o = w->outer + 2 * k * N * N;
        for (int64_t i = 0; i < N; i++)
            for (int64_t j = 0; j <= i; j++) {
                double ar = hk[2 * i], ai = hk[2 * i + 1];
                double br = hk[2 * j], bi = -hk[2 * j + 1];
                o[2 * (i * N + j)] = ar * br - ai * bi;
                o[2 * (i * N + j) + 1] = ar * bi + ai * br;
            }
        for (int64_t j = 0; j < N; j++) {
            w->h_t[2 * (j * K + k)] = hk[2 * j];
            w->h_t[2 * (j * K + k) + 1] = hk[2 * j + 1];
        }
    }
}

/* In-place lower Cholesky factor of acc into chol; 0 if a pivot is not positive. */
static int cholesky(Work *w)
{
    int64_t N = w->N;
    const double *a = w->acc;
    double *l = w->chol;
    for (int64_t j = 0; j < N; j++) {
        double d = a[2 * (j * N + j)];
        for (int64_t c = 0; c < j; c++) {
            double re = l[2 * (j * N + c)], im = l[2 * (j * N + c) + 1];
            d -= re * re + im * im;
        }
        if (!(d > 0.0)) return 0;
        d = sqrt(d);
        l[2 * (j * N + j)] = d;
        l[2 * (j * N + j) + 1] = 0.0;
        double inv = 1.0 / d;
        for (int64_t i = j + 1; i < N; i++) {
            double re = a[2 * (i * N + j)], im = a[2 * (i * N + j) + 1];
            for (int64_t c = 0; c < j; c++) {
                /* L[i, c] * conj(L[j, c]) */
                double xr = l[2 * (i * N + c)], xi = l[2 * (i * N + c) + 1];
                double yr = l[2 * (j * N + c)], yi = -l[2 * (j * N + c) + 1];
                re -= xr * yr - xi * yi;
                im -= xr * yi + xi * yr;
            }
            l[2 * (i * N + j)] = re * inv;
            l[2 * (i * N + j) + 1] = im * inv;
        }
    }
    return 1;
}

/*
 * Objective and gradient at p from one factorisation per user
 * (_ref.evaluate): value = sum_k dw[k] logdet(A_k) and
 * grad[m] = sum_{k >= m} dw[k] ||L_k^{-1} h_m||^2 / sigma2.  The products
 * L_k^{-1} h_m stay in plane k of w->z for face_hessian, which reads them
 * only when a Newton step is taken from p; planes with dw[k] == 0 are not
 * written.  Returns 0 if some A_k is not positive definite.
 */
static int evaluate(Work *w, const double *dw, const double *p, double sigma2, double *value,
                    double *grad)
{
    int64_t K = w->K, N = w->N;
    double *a = w->acc, *l = w->chol, *quad = w->quad;
    double total = 0.0;
    for (int64_t m = 0; m < K; m++) grad[m] = 0.0;
    for (int64_t k = 0; k < K; k++) {
        double s = p[k] / sigma2;
        const double *o = w->outer + 2 * k * N * N;
        for (int64_t i = 0; i < N; i++)
            for (int64_t j = 0; j <= i; j++) {
                int64_t at = 2 * (i * N + j);
                double re = s * o[at], im = s * o[at + 1];
                if (k == 0) {
                    a[at] = i == j ? re + 1.0 : re;
                    a[at + 1] = im;
                } else {
                    a[at] += re;
                    a[at + 1] += im;
                }
            }
        if (!cholesky(w)) return 0;
        double logdet = 0.0;
        for (int64_t i = 0; i < N; i++) logdet += log(l[2 * (i * N + i)]);
        double term = dw[k] * (2.0 * logdet);
        total = k == 0 ? term : total + term;
        if (dw[k] == 0.0) continue; /* its gradient and Hessian terms are zero */
        /* z_m = L_k^{-1} h_m for all m <= k at once, by column-oriented
         * forward substitution, one antenna row j at a time: z[j][m] is
         * row j of z_m.  Column 0 reads the channels and writes every row
         * of z; later columns update z in place. */
        int64_t M = k + 1;
        double *z = plane(w, k);
        for (int64_t j = 0; j < N; j++) {
            const double *src = j == 0 ? w->h_t : z;
            int64_t stride = j == 0 ? 2 * K : 2 * M;
            double pivot = l[2 * (j * N + j)];
            double *zj = z + 2 * j * M;
            const double *sj = src + j * stride;
            for (int64_t m = 0; m < M; m++) {
                double xr = sj[2 * m] / pivot, xi = sj[2 * m + 1] / pivot;
                zj[2 * m] = xr;
                zj[2 * m + 1] = xi;
                quad[m] = j == 0 ? xr * xr + xi * xi : quad[m] + (xr * xr + xi * xi);
            }
            for (int64_t i = j + 1; i < N; i++) {
                double yr = l[2 * (i * N + j)], yi = l[2 * (i * N + j) + 1];
                double *zi = z + 2 * i * M;
                const double *si = src + i * stride;
                for (int64_t m = 0; m < M; m++) {
                    double xr = zj[2 * m], xi = zj[2 * m + 1];
                    zi[2 * m] = si[2 * m] - (xr * yr - xi * yi);
                    zi[2 * m + 1] = si[2 * m + 1] - (xr * yi + xi * yr);
                }
            }
        }
        for (int64_t m = 0; m < M; m++) grad[m] += dw[k] * quad[m] / sigma2;
    }
    *value = total + 0.0; /* + 0.0 turns an all-zero -0.0 sum into +0.0 */
    return 1;
}

/*
 * The Hessian on the free face from the planes the last evaluate left
 * (_ref.face_hessian): for users m, n both on the face,
 * hess[m, n] = -sum_{k >= max(m, n)} dw[k] |<L_k^{-1} h_m, L_k^{-1} h_n>|^2 / sigma2^2,
 * summed in k order over dw[k] != 0.  Entries off the face are not written.
 */
static void face_hessian(Work *w, const double *dw, double sigma2)
{
    int64_t K = w->K, N = w->N;
    const double *on_face = w->on_face;
    double *hess = w->hess;
    /* -0.0, not 0.0, is the identity of floating-point addition. */
    for (int64_t m = 0; m < K; m++)
        for (int64_t n = 0; n < K; n++)
            if (on_face[m] && on_face[n]) hess[m * K + n] = -0.0;
    for (int64_t k = 0; k < K; k++) {
        if (dw[k] == 0.0) continue;
        int64_t M = k + 1;
        const double *z = plane(w, k);
        double weight = -dw[k] / sigma2 / sigma2;
        for (int64_t m = 0; m < M; m++) {
            if (!on_face[m]) continue;
            for (int64_t n = m; n < M; n++) {
                if (!on_face[n]) continue;
                double gr = 0.0, gi = 0.0;
                for (int64_t j = 0; j < N; j++) {
                    /* conj(z_m[j]) * z_n[j] */
                    const double *zm = z + 2 * (j * M + m), *zn = z + 2 * (j * M + n);
                    gr += zm[0] * zn[0] + zm[1] * zn[1];
                    gi += zm[0] * zn[1] - zm[1] * zn[0];
                }
                double t = (gr * gr + gi * gi) * weight;
                hess[m * K + n] += t;
                if (n != m) hess[n * K + m] += t;
            }
        }
    }
}

/* Euclidean projection of v onto {p >= 0, sum p <= budget} (_ref.project_simplex). */
static void project_simplex(Work *w, const double *v, double budget, double *out)
{
    int64_t K = w->K;
    double *u = w->u;
    double total = 0.0;
    for (int64_t m = 0; m < K; m++) {
        out[m] = np_max(v[m], 0.0);
        total = m == 0 ? out[m] : total + out[m];
    }
    if (total <= budget) return;
    /* u = v sorted in descending order (insertion sort; K is small). */
    for (int64_t m = 0; m < K; m++) {
        int64_t i = m;
        while (i > 0 && u[i - 1] < v[m]) {
            u[i] = u[i - 1];
            i--;
        }
        u[i] = v[m];
    }
    int64_t rho = K - 1;
    double cumulative = 0.0, top = 0.0;
    int found = 0;
    for (int64_t m = 0; m < K; m++) {
        cumulative = m == 0 ? u[0] : cumulative + u[m];
        if (u[m] - (cumulative - budget) / (double)(m + 1) > 0.0) {
            rho = m;
            top = cumulative;
            found = 1;
        }
    }
    if (!found) top = cumulative;
    double theta = (top - budget) / ((double)rho + 1.0);
    total = 0.0;
    for (int64_t m = 0; m < K; m++) {
        out[m] = budget == 0.0 ? 0.0 : np_max(v[m] - theta, 0.0);
        total = m == 0 ? out[m] : total + out[m];
    }
    /* theta cancels when v is far above the budget: scale the row onto the
     * budget, less a margin that covers the rounding of product and sum. */
    double margin = 1.0 - 4.0 * (double)K * DBL_EPSILON;
    double scale = total > 0.0 ? budget * margin / total : 1.0;
    for (int64_t m = 0; m < K; m++) out[m] *= scale;
}

/* First-order optimality residual of one row (_ref.kkt_residual). */
static double kkt_residual(int64_t K, const double *p, const double *g, double budget,
                           double eps_act)
{
    double mu = g[0], spread = 0.0, stationary = 0.0, sum = p[0];
    for (int64_t m = 1; m < K; m++) {
        mu = np_max(mu, g[m]);
        sum += p[m];
    }
    for (int64_t m = 0; m < K; m++) {
        int active = p[m] > eps_act;
        spread = np_max(spread, active ? fabs(g[m] - mu) : 0.0);
        stationary = np_max(stationary, active ? fabs(g[m]) : 0.0);
    }
    if (!(mu > 0.0)) return stationary / fmax(1.0, fabs(mu));
    double r_grad = spread / mu;
    double r_budget = fabs(sum - budget) / np_max(budget, eps_act);
    return r_budget > r_grad ? r_budget : r_grad;
}

static double dot(int64_t K, const double *x, const double *y)
{
    double out = 0.0;
    for (int64_t m = 0; m < K; m++) out += x[m] * y[m];
    return out;
}

/* The gradient scaled so that its largest entry is the budget (_ref._gradient_step). */
static void gradient_step(int64_t K, const double *g, double cap, double *step)
{
    double top = fabs(g[0]);
    for (int64_t m = 1; m < K; m++) top = np_max(top, fabs(g[m]));
    double scale = cap / top;
    for (int64_t m = 0; m < K; m++) step[m] = g[m] * scale;
}

/*
 * The search direction of one row and whether it is the Newton one
 * (_ref._newton_step): the Newton direction on the free face under
 * sum(d) = 0, from (ridge - H) [x y] = [g 1] by Gaussian elimination with
 * partial pivoting, else the gradient step.  H is built here, on the face
 * only, from the planes that evaluate left at p.
 */
static int newton_step(Work *w, const double *p, const double *g, const double *dw,
                       double sigma2, double cap, double eps_act, double *step)
{
    int64_t K = w->K, W = K + 2;
    double *a = w->face, *hess = w->hess;
    double top = g[0];
    for (int64_t m = 1; m < K; m++) top = np_max(top, g[m]);
    /* The free face: users with power plus those at the largest gradient. */
    for (int64_t m = 0; m < K; m++) w->on_face[m] = p[m] > eps_act || g[m] >= top;
    face_hessian(w, dw, sigma2);
    for (int64_t m = 0; m < K; m++) {
        for (int64_t n = 0; n < K; n++)
            a[m * W + n] = w->on_face[m] && w->on_face[n] ? -hess[m * K + n] : 0.0;
        a[m * W + K] = w->on_face[m] ? g[m] : 0.0;
        a[m * W + K + 1] = w->on_face[m] ? 1.0 : 0.0;
    }
    double scale = a[0];
    for (int64_t m = 1; m < K; m++) scale = np_max(scale, a[m * W + m]);
    for (int64_t m = 0; m < K; m++)
        a[m * W + m] += w->on_face[m] ? (scale > 0.0 ? RIDGE * scale : 1.0) : 1.0;
    for (int64_t c = 0; c < K; c++) {
        int64_t pivot = c;
        for (int64_t i = c + 1; i < K; i++)
            if (fabs(a[i * W + c]) > fabs(a[pivot * W + c])) pivot = i;
        if (pivot != c)
            for (int64_t j = c; j < W; j++) {
                double t = a[c * W + j];
                a[c * W + j] = a[pivot * W + j];
                a[pivot * W + j] = t;
            }
        for (int64_t i = c + 1; i < K; i++) {
            double f = a[i * W + c] / a[c * W + c];
            for (int64_t j = c + 1; j < W; j++) a[i * W + j] -= f * a[c * W + j];
        }
    }
    for (int64_t c = K - 1; c >= 0; c--)
        for (int64_t r = K; r < W; r++) {
            double s = a[c * W + r];
            for (int64_t j = c + 1; j < K; j++) s -= a[c * W + j] * a[j * W + r];
            a[c * W + r] = s / a[c * W + c];
        }
    double sx = 0.0, sy = 0.0;
    for (int64_t m = 0; m < K; m++) {
        sx += a[m * W + K];
        sy += a[m * W + K + 1];
    }
    double ratio = sx / sy;
    for (int64_t m = 0; m < K; m++) step[m] = a[m * W + K] - ratio * a[m * W + K + 1];
    double ascent = dot(K, g, step);
    if (ascent > 0.0 && isfinite(ascent)) return 1;
    gradient_step(K, g, cap, step);
    return 0;
}

/* The one entry: see the header comment for the arrays and the return value. */
int solve_pga_batch(int64_t B, int64_t K, int64_t N, const double *h, const double *dw,
                    double sigma2, const double *budget, double tol, double kkt_tol,
                    int64_t max_iter, double armijo, double shrink, double *p_out,
                    double *f_out, int64_t *it_out, double *kkt_out, unsigned char *conv_out)
{
    Work w;
    if (!work_init(&w, K, N)) return 2;
    int status = 0;
    for (int64_t b = 0; b < B && status == 0; b++) {
        const double *hb = h + 2 * b * K * N, *db = dw + b * K;
        double *p = p_out + b * K, *g = w.g;
        double cap = budget[b], f, kkt = 0.0;
        int64_t iteration = 0;
        int converged = 1;
        f_out[b] = 0.0;
        for (int64_t m = 0; m < K; m++) p[m] = 0.0;
        if (K == 0 || !(cap > 0.0)) { /* optimal at p = 0 */
            it_out[b] = 0;
            kkt_out[b] = 0.0;
            conv_out[b] = 1;
            continue;
        }
        double eps_act = 1e-9 * cap;
        for (int64_t m = 0; m < K; m++) p[m] = cap / (double)K;
        invariants(&w, hb);
        if (!evaluate(&w, db, p, sigma2, &f, g)) {
            status = 1;
            break;
        }
        kkt = kkt_residual(K, p, g, cap, eps_act);
        if (!(kkt <= kkt_tol)) {
            converged = 0;
            for (iteration = 1; iteration <= max_iter; iteration++) {
                double *step = w.step, *trial = w.trial, *v = w.v;
                int newton = newton_step(&w, p, g, db, sigma2, cap, eps_act, step);
                double t = 1.0, f_cand = 0.0;
                int accepted = 0;
                for (int attempt = 0; attempt < MAX_BACKTRACK; attempt++) {
                    for (int64_t m = 0; m < K; m++) v[m] = p[m] + t * step[m];
                    project_simplex(&w, v, cap, trial);
                    for (int64_t m = 0; m < K; m++) v[m] = trial[m] - p[m];
                    double ascent = dot(K, g, v);
                    /* Ascent below the rounding of f cannot be told from none. */
                    if (!(ascent > DBL_EPSILON * fabs(f))) {
                        /* A Newton arc without ascent turns to the gradient
                         * arc, unless the row meets the KKT tolerance: then
                         * it is numerically stationary, as is a row whose
                         * gradient arc has no ascent. */
                        if (!newton || !(kkt > kkt_tol)) break;
                        newton = 0;
                        t = 1.0;
                        gradient_step(K, g, cap, step);
                        continue;
                    }
                    if (!evaluate(&w, db, trial, sigma2, &f_cand, w.cand_g)) {
                        status = 1;
                        break;
                    }
                    if (f_cand >= f + armijo * ascent) {
                        accepted = 1;
                        break;
                    }
                    t *= shrink;
                }
                if (status != 0) break;
                if (!accepted) { /* numerically stationary */
                    converged = kkt <= kkt_tol;
                    break;
                }
                double rel_change = fabs(f_cand - f) / np_max(fabs(f_cand), 1e-300);
                memcpy(p, trial, (size_t)K * sizeof(double));
                memcpy(g, w.cand_g, (size_t)K * sizeof(double));
                f = f_cand;
                kkt = kkt_residual(K, p, g, cap, eps_act);
                if (rel_change <= tol && kkt <= kkt_tol) {
                    converged = 1;
                    break;
                }
            }
            if (iteration > max_iter) iteration = max_iter > 0 ? max_iter : 0;
        }
        f_out[b] = f;
        it_out[b] = iteration;
        kkt_out[b] = kkt;
        conv_out[b] = (unsigned char)converged;
    }
    free(w.outer);
    return status;
}
