import java.util.concurrent.atomic.AtomicReference;
import javax.annotation.concurrent.ThreadSafe;

@ThreadSafe
class GenericArray {
  private final AtomicReference<String>[] refs = null;

  public void set(AtomicReference<String> r) {
    refs[0] = r;
  }

  public synchronized AtomicReference<String> get() {
    return refs[0];
  }
}
