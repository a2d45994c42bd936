import javax.annotation.concurrent.ThreadSafe;

// each caller may pass a different holder, so h.lock guards nothing
@ThreadSafe
class ParamHolder {
  private int x;

  public void set(Holder h) {
    synchronized (h.lock) {
      x = 1;
    }
  }
}
