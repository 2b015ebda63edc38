/* The compiled twin of tailsim.sim.advance: one RK4 step of the vehicle on C doubles.
 *
 * advance(c, s, c_wl, c_wr, c_dl, c_dr) -> None steps the vehicle in place, as
 * sim.advance does, positional arguments only: c is the tuple of 24 sim.plant constants,
 * s a writable C-contiguous buffer of 17 doubles in format "d" (the 13 state values,
 * then the 4 actuator values), c_wl ... c_dr the 4 command floats; every value is read
 * as a C double, which is exact for Python floats.  s is written only when the step
 * succeeds.  An object that is not a buffer raises TypeError, and any other buffer
 * ValueError, before any step.  step() below is the step itself, on an aligned copy of
 * the buffer; model.actuator_wrench and sim._rhs are the two static functions before it.
 * Each statement transcribes the Python line that assigns the same name, with Python's
 * operands in Python's order; a comment quotes the Python where the C differs in form.
 * Built with -ffp-contract=off and without -ffast-math (no fused multiply-add, no
 * reassociation), every result then has the bits of sim.advance.  Where Python's `/`
 * would meet 0.0 this kernel raises ZeroDivisionError as Python does, and a non-finite
 * state raises tailsim.errors.SimulationDivergedError with advance's message.
 * tailsim.sim builds and loads this file through tailsim._build.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

static PyObject *diverged;  /* tailsim.errors.SimulationDivergedError */

static int
zero_division(void)
{
    PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
    return -1;
}

/* model.actuator_wrench: both sides' wrench, w = (fx, fy, fz, mx, my, mz) */
static void
actuator_wrench(double wl, double wr, double dl, double dr, const double *c, double *w)
{
    const double k_t = c[0], k_m = c[1], k_l = c[2], k_d = c[3], k_p = c[4], l = c[5];
    double A = wl * wl;                                          /* A = wl * wl */
    double B = wr * wr;                                          /* B = wr * wr */
    double u_l = A * dl;                                         /* u_l = A * dl */
    double u_r = B * dr;                                         /* u_r = B * dr */
    w[0] = -k_l * (u_l + u_r);                                   /* fx = */
    w[1] = 0.0;                                                  /* fy = 0.0 */
    w[2] = -k_t * (A + B) + k_d * (u_l * dl + u_r * dr);         /* fz = */
    w[3] = k_t * l * (A - B) - k_d * l * (u_l * dl - u_r * dr);  /* mx = */
    w[4] = -k_p * (u_l + u_r);                                   /* my = */
    w[5] = k_m * (A - B) - k_l * l * (u_l - u_r);                /* mz = */
}

/* sim._rhs at the stage y0 + h * k (k NULL: y0 itself), the wrench w plus the
 * torque offset as fx ... mz; out[0..12] is the state derivative */
static int
rhs(const double *y0, const double *k, double h, const double *w,
    double mx, double my, double mz, const double *c, double *out)
{
    const double mg = c[6], inv_m = c[7], jx = c[8], jy = c[9], jz = c[10];
    const double dfx = c[11], dfy = c[12], dfz = c[13];
    double fx = w[0], fy = w[1], fz = w[2];
    double vx = y0[3], vy = y0[4], vz = y0[5], qw = y0[6], qx = y0[7], qy = y0[8],
           qz = y0[9], wx = y0[10], wy = y0[11], wz = y0[12];
    if (k != NULL) {
        vx = vx + h * k[3]; vy = vy + h * k[4]; vz = vz + h * k[5];
        qw = qw + h * k[6]; qx = qx + h * k[7]; qy = qy + h * k[8]; qz = qz + h * k[9];
        wx = wx + h * k[10]; wy = wy + h * k[11]; wz = wz + h * k[12];
    }

    double qxx = qx * qx, qyy = qy * qy, qzz = qz * qz;  /* qxx, qyy, qzz = */
    double qxy = qx * qy, qxz = qx * qz, qyz = qy * qz;  /* qxy, qxz, qyz = */
    double qwx = qw * qx, qwy = qw * qy, qwz = qw * qz;  /* qwx, qwy, qwz = */
    double r00 = 1.0 - 2.0 * (qyy + qzz);
    double r01 = 2.0 * (qxy - qwz);
    double r02 = 2.0 * (qxz + qwy);
    double r10 = 2.0 * (qxy + qwz);
    double r11 = 1.0 - 2.0 * (qxx + qzz);
    double r12 = 2.0 * (qyz - qwx);
    double r20 = 2.0 * (qxz - qwy);
    double r21 = 2.0 * (qyz + qwx);
    double r22 = 1.0 - 2.0 * (qxx + qyy);

    fx += mg * r20 + r00 * dfx + r10 * dfy + r20 * dfz;  /* fx += */
    fy += mg * r21 + r01 * dfx + r11 * dfy + r21 * dfz;  /* fy += */
    fz += mg * r22 + r02 * dfx + r12 * dfy + r22 * dfz;  /* fz += */

    out[0] = vx; out[1] = vy; out[2] = vz;
    out[3] = (r00 * fx + r01 * fy + r02 * fz) * inv_m;
    out[4] = (r10 * fx + r11 * fy + r12 * fz) * inv_m;
    out[5] = (r20 * fx + r21 * fy + r22 * fz) * inv_m;
    out[6] = 0.5 * (-qx * wx - qy * wy - qz * wz);
    out[7] = 0.5 * (qw * wx + qy * wz - qz * wy);
    out[8] = 0.5 * (qw * wy - qx * wz + qz * wx);
    out[9] = 0.5 * (qw * wz + qx * wy - qy * wx);
    if (jx == 0.0 || jy == 0.0 || jz == 0.0)  /* the three `/ jx`, `/ jy`, `/ jz` */
        return zero_division();
    out[10] = (mx - (wy * jz * wz - wz * jy * wy)) / jx;
    out[11] = (my - (wz * jx * wx - wx * jz * wz)) / jy;
    out[12] = (mz - (wx * jy * wy - wy * jx * wx)) / jz;
    return 0;
}

/* the n floats of a sequence argument, as Python's unpacking of it would find them */
static int
floats(PyObject *arg, double *out, Py_ssize_t n)
{
    PyObject *seq = PySequence_Fast(arg, "cannot unpack a non-sequence");
    if (seq == NULL)
        return -1;
    Py_ssize_t size = PySequence_Fast_GET_SIZE(seq);
    if (size != n) {
        PyErr_Format(PyExc_ValueError, "expected %zd values to unpack, got %zd", n, size);
        Py_DECREF(seq);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyFloat_AsDouble(items[i]);
        if (out[i] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    return 0;
}

/* sim.advance on s: s[0..12] the state y0, s[13..16] the actuators act, overwritten
 * with the step's (y, act) on success and left as they were on an error */
static int
step(const double *c, const double *cmd, double *s)
{
    const double *y0 = s, *a = s + 13;
    const double dmx = c[14], dmy = c[15], dmz = c[16], e_m2 = c[17], e_s2 = c[18];
    const double w_max = c[19], d_max = c[20], dt = c[21], half = c[22], sixth = c[23];

    /* c_wl = 0.0 if c_wl < 0.0 else w_max if c_wl > w_max else c_wl, and so on */
    double c_wl = cmd[0] < 0.0 ? 0.0 : cmd[0] > w_max ? w_max : cmd[0];
    double c_wr = cmd[1] < 0.0 ? 0.0 : cmd[1] > w_max ? w_max : cmd[1];
    double c_dl = cmd[2] < -d_max ? -d_max : cmd[2] > d_max ? d_max : cmd[2];
    double c_dr = cmd[3] < -d_max ? -d_max : cmd[3] > d_max ? d_max : cmd[3];
    double wl0 = a[0], wr0 = a[1], dl0 = a[2], dr0 = a[3];
    double wl1 = c_wl + (wl0 - c_wl) * e_m2;
    double wr1 = c_wr + (wr0 - c_wr) * e_m2;
    double dl1 = c_dl + (dl0 - c_dl) * e_s2;
    double dr1 = c_dr + (dr0 - c_dr) * e_s2;
    double wl2 = c_wl + (wl1 - c_wl) * e_m2;
    double wr2 = c_wr + (wr1 - c_wr) * e_m2;
    double dl2 = c_dl + (dl1 - c_dl) * e_s2;
    double dr2 = c_dr + (dr1 - c_dr) * e_s2;

    double w[6], k1[13], k2[13], k3[13], k4[13], y[13], mx, my, mz;
    actuator_wrench(wl0, wr0, dl0, dr0, c, w);
    if (rhs(y0, NULL, 0.0, w, w[3] + dmx, w[4] + dmy, w[5] + dmz, c, k1) < 0)
        return -1;
    actuator_wrench(wl1, wr1, dl1, dr1, c, w);
    mx = w[3] + dmx; my = w[4] + dmy; mz = w[5] + dmz;  /* mx, my, mz = mx + dmx, ... */
    if (rhs(y0, k1, half, w, mx, my, mz, c, k2) < 0 || rhs(y0, k2, half, w, mx, my, mz, c, k3) < 0)
        return -1;
    actuator_wrench(wl2, wr2, dl2, dr2, c, w);
    if (rhs(y0, k3, dt, w, w[3] + dmx, w[4] + dmy, w[5] + dmz, c, k4) < 0)
        return -1;

    /* px = y0[0] + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]), ... wz */
    for (int i = 0; i < 13; i++)
        y[i] = y0[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]);
    /* if not math.isfinite(px + py + ... + wz): the left-to-right sum */
    double sum = y[0];
    for (int i = 1; i < 13; i++)
        sum = sum + y[i];
    if (!isfinite(sum)) {
        PyErr_SetString(diverged, "non-finite state after integration step");
        return -1;
    }

    /* inv_n = 1.0 / math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz) */
    double norm = sqrt(y[6] * y[6] + y[7] * y[7] + y[8] * y[8] + y[9] * y[9]);
    if (norm == 0.0)
        return zero_division();
    double inv_n = 1.0 / norm;
    for (int i = 6; i < 10; i++)
        y[i] = y[i] * inv_n;
    memcpy(s, y, sizeof y);
    s[13] = wl2 < 0.0 ? 0.0 : wl2 > w_max ? w_max : wl2;
    s[14] = wr2 < 0.0 ? 0.0 : wr2 > w_max ? w_max : wr2;
    s[15] = dl2 < -d_max ? -d_max : dl2 > d_max ? d_max : dl2;
    s[16] = dr2 < -d_max ? -d_max : dr2 > d_max ? d_max : dr2;
    return 0;
}

/* sim.advance */
static PyObject *
advance(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    double c[24], cmd[4], s[17];
    if (nargs != 6) {
        PyErr_Format(PyExc_TypeError, "advance() takes 6 positional arguments (%zd given)", nargs);
        return NULL;
    }
    if (floats(args[0], c, 24) < 0)
        return NULL;
    for (int i = 0; i < 4; i++) {
        cmd[i] = PyFloat_AsDouble(args[2 + i]);
        if (cmd[i] == -1.0 && PyErr_Occurred())
            return NULL;
    }
    Py_buffer view;
    if (PyObject_GetBuffer(args[1], &view, PyBUF_FULL_RO) < 0)  /* as memoryview(s) */
        return NULL;
    int rc = -1;
    const char *format = view.format == NULL ? "B" : view.format;
    if (view.readonly || !PyBuffer_IsContiguous(&view, 'C') || view.len != (Py_ssize_t)sizeof s
        || strcmp(format, "d") != 0) {
        PyErr_Format(PyExc_ValueError, "advance() needs a writable contiguous buffer of 17 "
                     "doubles, got %zd bytes of format '%s'", view.len, format);
    }
    else {
        memcpy(s, view.buf, sizeof s);  /* the buffer need not be aligned for double */
        rc = step(c, cmd, s);
        if (rc == 0)
            memcpy(view.buf, s, sizeof s);
    }
    PyBuffer_Release(&view);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"advance", (PyCFunction)(void (*)(void))advance, METH_FASTCALL,
     "advance(c, s, c_wl, c_wr, c_dl, c_dr) -> None: tailsim.sim.advance, compiled"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef rk4_module = {
    PyModuleDef_HEAD_INIT, .m_name = "_rk4", .m_doc = "The compiled twin of tailsim.sim.advance.",
    .m_size = -1, .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__rk4(void)
{
    PyObject *errors = PyImport_ImportModule("tailsim.errors");
    if (errors == NULL)
        return NULL;
    diverged = PyObject_GetAttrString(errors, "SimulationDivergedError");
    Py_DECREF(errors);
    PyObject *module = diverged == NULL ? NULL : PyModule_Create(&rk4_module);
    if (module == NULL)
        Py_CLEAR(diverged);
    return module;
}
